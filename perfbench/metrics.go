package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// lists them, which direction is better, the regression bound (end-to-end
// metrics only), and for a per-layer metric the end-to-end metric and
// workload it is expected to move.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
}

// endToEnd lists the metrics a user of the planner or the gateway sees. Every
// run reports all of them: a workload measures its own path for the run's
// seconds and a reference pass on fixed inputs supplies the rest (see the
// package comment). The nominal leg's p99 is left out: at the fixed pool's
// 84% backend utilisation a timer stall on a shared two-core machine lifts
// it by up to half, even on fixed inputs, so no bound of 25% holds; it is
// still printed, with its windows, on the line before the result.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "search_s", unit: "s", better: "lower", bound: 0.25},
	{name: "time_to_best_s", unit: "s", better: "lower", bound: 0.25},
	{name: "samples_to_best", unit: "count", better: "lower", bound: 0.25},
	{name: "plan_cost_usd_hr", unit: "usd/hr", better: "lower", bound: 0.1},
	{name: "nominal.p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "nominal.goodput_qps", unit: "1/s", better: "higher", bound: 0.15},
	{name: "overload.goodput_qps", unit: "1/s", better: "higher", bound: 0.15},
	{name: "churn.goodput_qps", unit: "1/s", better: "higher", bound: 0.15},
	{name: "overload.critical_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ingress_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "ingress_cpu_us_per_req", unit: "us", better: "lower", bound: 0.25},
	{name: "ingress_p50_us", unit: "us", better: "lower", bound: 0.25},
}

// Criticality tiers (priority order) and the fixed pool's deployed families
// (servePool's nonzero slots, in pool order), as they appear in per-layer
// metric names.
var (
	tierNames  = []string{"critical", "standard", "sheddable"}
	poolFamily = []string{"c5a", "m5"}
)

// perLayer lists the traced run's metrics, each with the end-to-end metric
// and workload it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := []metricDef{
		{name: "core.committed", unit: "count", better: "lower", moves: "samples_to_best on plan-sim and plan-deploy"},
		{name: "serving.evaluate.calls", unit: "count", better: "lower", moves: "search_s on plan-sim; no move on plan-deploy"},
		{name: "serving.evaluate.busy_s", unit: "s", better: "lower", moves: "search_s on plan-sim; no move on plan-deploy"},
		{name: "serving.evaluate.p50_ms", unit: "ms", better: "lower", moves: "search_s on plan-sim; no move on plan-deploy"},
		{name: "serving.evaluate.p99_ms", unit: "ms", better: "lower", moves: "search_s on plan-sim; no move on plan-deploy"},
		{name: "core.bounds_s", unit: "s", better: "lower", moves: "setup_s on plan-sim and plan-deploy"},
		{name: "core.commit_wait_s", unit: "s", better: "lower", moves: "search_s and time_to_best_s on plan-deploy"},
		{name: "core.self_s", unit: "s", better: "lower", moves: "search_s and time_to_best_s on plan-deploy"},
		{name: "core.prefetch.launched", unit: "count", better: "lower", moves: "search_s on plan-deploy; on plan-sim through waste"},
		{name: "core.prefetch.hits", unit: "count", better: "higher", moves: "search_s and time_to_best_s on plan-deploy"},
		{name: "core.prefetch.wasted", unit: "count", better: "lower", moves: "search_s on plan-sim"},
		{name: "core.prefetch.hit_ratio", unit: "ratio", better: "higher", moves: "search_s and time_to_best_s on plan-deploy"},
		{name: "bo.self_s", unit: "s", better: "lower", moves: "search_s on plan-sim"},
		{name: "bo.step_self.p50_ms", unit: "ms", better: "lower", moves: "search_s on plan-sim"},
		{name: "bo.step_self.p99_ms", unit: "ms", better: "lower", moves: "search_s on plan-sim"},
		{name: "workload.generate_ms", unit: "ms", better: "lower", moves: "setup_s on plan-sim and plan-deploy"},
	}
	for _, lg := range legs {
		leg := lg.name
		ms = append(ms,
			metricDef{name: "gateway." + leg + ".admit.p50_us", unit: "us", better: "lower", moves: "ingress_* on serve-ingress"},
			metricDef{name: "gateway." + leg + ".admit.p99_us", unit: "us", better: "lower", moves: "ingress_* on serve-ingress"},
		)
		for _, tier := range tierNames {
			p := "gateway." + leg + "." + tier
			target := map[string]string{
				"nominal":  "nominal.p50_ms on serve-flood",
				"overload": "overload.critical_p99_ms on serve-flood",
				"churn":    "churn.goodput_qps on serve-flood",
			}[leg]
			ms = append(ms,
				metricDef{name: p + ".queue_wait.p50_ms", unit: "ms", better: "lower", moves: target},
				metricDef{name: p + ".queue_wait.p99_ms", unit: "ms", better: "lower", moves: target},
				metricDef{name: p + ".served", unit: "count", better: "higher", moves: leg + ".goodput_qps on serve-flood"},
				metricDef{name: p + ".shed", unit: "count", better: "lower", moves: leg + ".goodput_qps on serve-flood"},
				metricDef{name: p + ".rejected", unit: "count", better: "lower", moves: leg + ".goodput_qps on serve-flood"},
				metricDef{name: p + ".failed", unit: "count", better: "lower", moves: leg + ".goodput_qps on serve-flood"},
			)
		}
		for _, fam := range poolFamily {
			p := "backend." + leg + "." + fam
			ms = append(ms,
				metricDef{name: p + ".calls", unit: "count", better: "higher", moves: leg + ".goodput_qps on serve-flood"},
				metricDef{name: p + ".busy_frac", unit: "frac", better: "lower", moves: leg + ".goodput_qps on serve-flood"},
			)
		}
	}
	for _, fam := range poolFamily {
		ms = append(ms,
			metricDef{name: "backend." + fam + ".serve.p50_ms", unit: "ms", better: "lower", moves: "*.goodput_qps on serve-flood"},
			metricDef{name: "backend." + fam + ".serve.p99_ms", unit: "ms", better: "lower", moves: "*.goodput_qps on serve-flood"},
		)
	}
	ms = append(ms,
		metricDef{name: "gateway.ingress.admit.p50_us", unit: "us", better: "lower", moves: "ingress_* on serve-ingress"},
		metricDef{name: "gateway.ingress.admit.p99_us", unit: "us", better: "lower", moves: "ingress_* on serve-ingress"},
		metricDef{name: "gateway.ingress.rtt.p50_us", unit: "us", better: "lower", moves: "ingress_p50_us on serve-ingress"},
		metricDef{name: "gateway.ingress.rtt.p99_us", unit: "us", better: "lower", moves: "ingress_p50_us on serve-ingress"},
		metricDef{name: "gateway.ingress.handoff.p50_us", unit: "us", better: "lower", moves: "ingress_* on serve-ingress"},
		metricDef{name: "gateway.ingress.served", unit: "count", better: "higher", moves: "ingress_rps on serve-ingress"},
		metricDef{name: "gen.late.p99_ms", unit: "ms", better: "lower", moves: "nominal.p50_ms and overload.critical_p99_ms on serve-flood (generator, not gateway)"},
		metricDef{name: "gen.late.max_ms", unit: "ms", better: "lower", moves: "nominal.p50_ms and overload.critical_p99_ms on serve-flood (generator, not gateway)"},
		metricDef{name: "runtime.alloc_bytes_per_op", unit: "B/op", better: "lower", moves: "search_s on plan-sim; ingress_cpu_us_per_req on serve-ingress"},
		metricDef{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower", moves: "search_s on plan-sim; ingress_cpu_us_per_req on serve-ingress"},
	)
	for _, e := range endToEnd {
		ms = append(ms, metricDef{name: "overhead." + e.name, unit: e.unit, better: e.better,
			moves: "tracing overhead: traced minus untraced " + e.name})
	}
	return ms
}

// ladder holds the percentiles a tail may be reported at, highest first.
var ladder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// supportedQ applies the reporting rule: the highest percentile, at most
// want, that leaves at least ten of n samples beyond it. The median is
// always reported, however few samples there are.
func supportedQ(n int, want float64) float64 {
	for _, q := range ladder {
		if q > want+1e-12 {
			continue
		}
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= 10 {
			return q
		}
	}
	return 0.5
}

// quantile is a nearest-rank percentile of xs (which it sorts in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// tail is a reported percentile: the value, the percentile the sample
// supported, the sample count and, for a windowed percentile, the number of
// windows it is the median over.
type tail struct {
	Value   float64 `json:"value"`
	Q       float64 `json:"q"`
	N       int     `json:"n"`
	Windows int     `json:"windows,omitempty"`
}

// pct reports xs at want, lowered by the reporting rule when the sample is
// too small for it.
func pct(xs []float64, want float64) tail {
	q := supportedQ(len(xs), want)
	return tail{Value: quantile(xs, q), Q: q, N: len(xs)}
}

// windowSize is the number of consecutive samples a windowed percentile
// takes each window's percentile over: enough for a p99 by the reporting
// rule.
const windowSize = 1000

// windowedPct splits xs, in arrival order, into consecutive windows of
// windowSize samples (the remainder joins the last window), takes each
// window's percentile at want under the reporting rule, and reports the
// median over the windows. On a shared machine a stall of a few hundred
// milliseconds, or one burst of outsized batches, lifts the tail of every
// request it overlaps; over a whole leg such events set the p99 by
// themselves, while the median window's p99 is what a typical stretch of
// the leg delivered.
func windowedPct(xs []float64, want float64) tail {
	n := len(xs) / windowSize
	if n <= 1 {
		return pct(append([]float64(nil), xs...), want)
	}
	var vals []float64
	q := want
	for w := 0; w < n; w++ {
		end := (w + 1) * windowSize
		if w == n-1 {
			end = len(xs)
		}
		t := pct(append([]float64(nil), xs[w*windowSize:end]...), want)
		vals = append(vals, t.Value)
		q = min(q, t.Q)
	}
	return tail{Value: median(vals), Q: q, N: len(xs), Windows: n}
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	return quantile(ys, 0.5)
}

func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// result collects one pass's metrics, the percentile details behind them,
// and the outcome of the output checks.
type result struct {
	metrics   map[string]float64
	tails     map[string]tail
	attempted int
	failed    int
	problems  []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, tails: map[string]tail{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) setTail(name string, t tail) {
	r.metrics[name] = t.Value
	r.tails[name] = t
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}
