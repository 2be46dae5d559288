package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"ribbon/internal/bo"
	"ribbon/internal/core"
	"ribbon/internal/models"
	"ribbon/internal/serving"
)

// PerfEntry is one measured hot path in the machine-readable perf report.
type PerfEntry struct {
	// Name identifies the measurement (e.g. "evaluate", "search/deploy25ms/parallelism=4").
	Name string `json:"name"`
	// MinNs, MedianNs and MaxNs spread the wall-clock nanoseconds per
	// operation over the report's Runs repeats.
	MinNs    float64 `json:"min_ns"`
	MedianNs float64 `json:"median_ns"`
	MaxNs    float64 `json:"max_ns"`
	// AllocsPerOp is the mean heap allocations per operation, when
	// measured.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// SpeedupVsP1 is the parallelism=1 entry's MinNs over this entry's
	// MinNs, within one regime. Both run the same search and commit the
	// same SearchResult, so the ratio is the parallel gain alone.
	SpeedupVsP1 float64 `json:"speedup_vs_p1,omitempty"`
}

// PerfReport is the machine-readable result of the perf experiment
// (cmd/ribbon-bench writes it to the -perf-out file, BENCH_14.json by
// default; the checked-in BENCH_*.json reports are the repository's perf
// trajectory). Searches at any parallelism produce bit-identical
// SearchResults — the report records wall-clock and allocation behavior
// only.
type PerfReport struct {
	// Schema versions the report layout.
	Schema string `json:"schema"`
	// GoMaxProcs, NumCPU and GoVersion record the machine every entry was
	// taken on; CPU-bound speedups are bounded by GoMaxProcs.
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// Runs is how many times every entry was measured.
	Runs int `json:"runs"`
	// DeployDelayMs is the synthetic per-evaluation measurement window of
	// the "deploy" search variants.
	DeployDelayMs float64 `json:"deploy_delay_ms"`
	// Entries holds the measurements.
	Entries []PerfEntry `json:"entries"`
}

// perfRuns is how many times the perf experiment measures each entry.
const perfRuns = 3

// perfDeployDelay models the wall-clock cost of sampling a configuration on
// a real deployment (the paper serves live traffic through each candidate).
const perfDeployDelay = 25 * time.Millisecond

// timeOp returns the mean ns/op of fn over n runs.
func timeOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// spread fills e's min, median and max from per-run ns/op samples.
func spread(e PerfEntry, ns []float64) PerfEntry {
	sorted := append([]float64(nil), ns...)
	sort.Float64s(sorted)
	e.MinNs, e.MedianNs, e.MaxNs = sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1]
	return e
}

// Perf measures the search-core hot paths: one simulator evaluation, one
// acquisition step, and full searches at parallelism 1 and 4 in both the
// CPU-bound (simulator) and latency-bound (synthetic deployment window)
// regimes. Every entry is measured perfRuns times. It returns a printable
// table and the machine-readable report.
func Perf(s Setup) (Table, PerfReport) {
	s = s.withDefaults()
	rep := PerfReport{
		Schema:        "ribbon-perf/v3",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		Runs:          perfRuns,
		DeployDelayMs: float64(perfDeployDelay) / float64(time.Millisecond),
	}
	spec := serving.MustNewPoolSpec(models.MustLookup("MT-WND"), s.QoSPercentile, "g4dn", "c5", "r5n")
	repeat := func(fn func() float64) []float64 {
		ns := make([]float64, perfRuns)
		for i := range ns {
			ns[i] = fn()
		}
		return ns
	}

	// Hot path 1: the discrete-event evaluation.
	ev := serving.NewSimEvaluator(spec, serving.SimOptions{Queries: s.Queries, Seed: s.Seed})
	cfg := serving.Config{3, 1, 3}
	ev.Evaluate(cfg) // warm the arena
	rep.Entries = append(rep.Entries, spread(PerfEntry{
		Name:        "evaluate",
		AllocsPerOp: testing.AllocsPerRun(10, func() { ev.Evaluate(cfg) }),
	}, repeat(func() float64 { return timeOp(20, func() { ev.Evaluate(cfg) }) })))

	// Hot path 2: the acquisition step (surrogate fit + indexed EI scan),
	// in the exact shape of the pre-rebuild BenchmarkBOSuggest for
	// before/after comparison.
	obj := func(x []int) float64 { return -float64((x[0]-3)*(x[0]-3) + (x[1]-7)*(x[1]-7)) }
	suggest := func() {
		o := bo.New([]int{5, 12}, bo.Options{Rounding: true, Seed: s.Seed})
		for _, x := range [][]int{{0, 0}, {5, 12}, {2, 6}} {
			o.Observe(x, obj(x))
		}
		if _, ok := o.Suggest(); !ok {
			panic("experiments: no suggestion")
		}
	}
	rep.Entries = append(rep.Entries, spread(PerfEntry{
		Name:        "suggest",
		AllocsPerOp: testing.AllocsPerRun(50, suggest),
	}, repeat(func() float64 { return timeOp(100, suggest) })))

	// Hot path 3: the full search, CPU-bound (pure simulator) and
	// latency-bound (synthetic deployment window), at parallelism 1 and 4.
	// Both commit the identical SearchResult, so the P4/P1 ratio isolates
	// the parallel gain. Each run starts from a cold cache, and the P1 and
	// P4 runs alternate so drift on a shared host hits both alike.
	bounds := []int{5, 8, 8}
	budget := 40
	search := func(delay time.Duration, parallelism int) float64 {
		var inner serving.Evaluator = serving.NewSimEvaluator(spec,
			serving.SimOptions{Queries: s.Queries / 2, Seed: s.Seed})
		if delay > 0 {
			inner = perfSlowEval{inner: inner, delay: delay}
		}
		cache := serving.NewCachingEvaluator(inner)
		return timeOp(1, func() {
			core.NewSearcher(cache, bounds, s.Seed, core.Options{Parallelism: parallelism}).Run(budget)
		})
	}
	for _, regime := range []struct {
		name  string
		delay time.Duration
	}{{"sim", 0}, {"deploy25ms", perfDeployDelay}} {
		var p1, p4 []float64
		for i := 0; i < perfRuns; i++ {
			p1 = append(p1, search(regime.delay, 1))
			p4 = append(p4, search(regime.delay, 4))
		}
		one := spread(PerfEntry{Name: fmt.Sprintf("search/%s/parallelism=1", regime.name)}, p1)
		four := spread(PerfEntry{Name: fmt.Sprintf("search/%s/parallelism=4", regime.name)}, p4)
		four.SpeedupVsP1 = one.MinNs / four.MinNs
		rep.Entries = append(rep.Entries, one, four)
	}

	t := Table{
		ID:     "perf",
		Title:  fmt.Sprintf("Search-core hot paths, %d runs each (bit-identical results at any parallelism)", perfRuns),
		Header: []string{"Path", "min ns/op", "median ns/op", "max ns/op", "allocs/op", "speedup vs P1"},
	}
	for _, e := range rep.Entries {
		alloc, speed := "-", "-"
		if e.AllocsPerOp > 0 {
			alloc = fmt.Sprintf("%.0f", e.AllocsPerOp)
		}
		if e.SpeedupVsP1 > 0 {
			speed = fmt.Sprintf("%.2fx", e.SpeedupVsP1)
		}
		t.AddRow(e.Name, fmt.Sprintf("%.0f", e.MinNs), fmt.Sprintf("%.0f", e.MedianNs),
			fmt.Sprintf("%.0f", e.MaxNs), alloc, speed)
	}
	return t, rep
}

type perfSlowEval struct {
	inner serving.Evaluator
	delay time.Duration
}

func (p perfSlowEval) Spec() serving.PoolSpec { return p.inner.Spec() }
func (p perfSlowEval) Evaluate(cfg serving.Config) serving.Result {
	time.Sleep(p.delay)
	return p.inner.Evaluate(cfg)
}
