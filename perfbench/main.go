// Command perfbench is the repository's benchmark: it plans pools and serves
// requests through the public functions of the serving, core, workload and
// gateway packages, times every layer from outside through its own wrappers
// of serving.Evaluator and gateway.Backend, and checks the outputs.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload plan-sim --seed 1 --seconds 20 --trace 0
//
// Workloads (one process each, at most nproc concurrent callers):
//
//   - plan-sim: cold RIBBON searches (budget 40, parallelism 2, auto mode)
//     over the five paper models on their Table 3 pools, against the
//     in-process simulator replaying benchmark-generated streams.
//   - plan-deploy: the same searches with a fixed 25 ms measurement window
//     before every simulator evaluation, the paper's deploy-per-sample setting.
//   - serve-flood: open-loop, class-mixed (1:2:1) CANDLE streams through
//     gateway.Ingest on the fixed pool c5a/m5/t3 = {4,1,0} with criticality
//     dispatch and a simulated backend at time scale 0.5, in three legs on
//     fresh gateways: nominal (450 qps), overload (2x) and churn (1x with one
//     c5a revoked a third of the way in and restored two thirds in).
//   - serve-ingress: a closed loop of nproc callers through gateway.Ingest on
//     the same pool behind a backend that answers at once.
//
// Every run reports every end-to-end metric. The workload's own path is
// measured for --seconds (a plan path for planShare of it) on inputs derived
// from --seed; the other paths run a reference pass on fixed inputs, so
// their metrics are present, steady and still guard against regressions. --trace 1 runs the workload twice,
// untraced then traced, for half the seconds each: the traced pass gives the
// per-layer metrics, and the difference between the passes is reported as
// the tracing overhead of each end-to-end metric. Spans are written to
// .bench_build/spans/.
//
// The last line of standard output is the result object; the line before it
// carries provenance, the percentile actually reported for each tail metric
// with its sample count, and any failed output check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// referenceSeed fixes the inputs of the reference passes.
const referenceSeed = 1

// Sizes of the reference passes.
const (
	refPlanSeconds    = 3
	refIngressSeconds = 4
)

// refFloodStreamMs is the stream time of each reference flood leg. The
// nominal leg is the longest: its p99 is the median over windows of a
// thousand requests, and a stall on the machine can lift a whole window.
var refFloodStreamMs = []float64{16000, 4000, 3000}

// planShare is the part of a plan workload's seconds its own path gets; the
// long reference flood takes the rest. Sweep times are steady well within
// it.
const planShare = 0.6

// floodShare splits a serve-flood run's seconds between its legs: the
// nominal p99 needs the most samples; the overload share still leaves over
// a thousand critical requests for the critical p99.
var floodShare = []float64{0.6, 0.2, 0.2}

// settle is the idle pause between the passes of a run, so that one pass's
// stragglers (timers, goroutines winding down, the GC) do not land in the
// next pass's measurement.
const settle = time.Second

var workloads = []string{"plan-sim", "plan-deploy", "serve-flood", "serve-ingress"}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "plan-sim, plan-deploy, serve-flood or serve-ingress")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time of the workload's own path")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.Parse()
	o.trace = trace == 1
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures the workload, prints the report and result lines, and
// reports whether every output check passed.
func run(o options) (bool, error) {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return false, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if o.seconds <= 0 {
		return false, errors.New("--seconds must be positive")
	}
	var res *result
	var tr *tracer
	var err error
	if !o.trace {
		if res, err = pass(o, nil, o.seconds); err != nil {
			return false, err
		}
	} else {
		base, err := pass(o, nil, o.seconds/2)
		if err != nil {
			return false, err
		}
		tr = newTracer()
		if res, err = pass(o, tr, o.seconds/2); err != nil {
			return false, err
		}
		for _, e := range endToEnd {
			res.set("overhead."+e.name, res.metrics[e.name]-base.metrics[e.name])
		}
		res.attempted += base.attempted
		res.failed += base.failed
		res.problems = append(res.problems, base.problems...)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		res.check(ok, "metric %s was not measured", d.name)
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	out.Correct = len(res.problems) == 0 && res.failed == 0 && res.attempted > 0

	if tr != nil {
		name := fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)
		if err := writeSpans(".bench_build/spans", name, tr.all()); err != nil {
			return false, err
		}
	}
	report := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"tails":      res.tails,
		"problems":   res.problems,
	}
	if err := printJSON(report); err != nil {
		return false, err
	}
	if err := printJSON(out); err != nil {
		return false, err
	}
	return out.Correct, nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Println(string(b))
	return err
}

// pass measures the workload's own path for seconds and the reference
// passes of the other paths, and returns every metric. The order is fixed:
// ingress, plan, flood. The closed ingress loop's CPU cost per request
// depends on whether the scheduler keeps the loop on one core, and a
// process that has already done other work tips it there more often; plan
// sweeps run measurably slower for a while after a flood. On the serve
// workloads the reference plan pass sweeps in three bursts, so that its
// median does not rest on one moment of the machine.
func pass(o options, tr *tracer, seconds float64) (*result, error) {
	res := newResult()
	var plan *planPass
	burst := func() error {
		if plan == nil {
			var err error
			if plan, err = newPlanPass(res, planConfig{seed: referenceSeed, inputs: 1}, tr, false); err != nil {
				return err
			}
		}
		plan.sweepFor(refPlanSeconds / 3)
		return nil
	}
	refFlood := func() error {
		_, err := runFlood(res, referenceSeed, refFloodStreamMs, tr, false)
		return err
	}
	refIngress := func() error {
		_, err := runIngress(res, referenceSeed, refIngressSeconds, tr, false)
		return err
	}
	var steps []func() error
	switch o.workload {
	case "plan-sim", "plan-deploy":
		cfg := planConfig{seed: o.seed, inputs: 8, seconds: seconds * planShare}
		if o.workload == "plan-deploy" {
			cfg.inputs, cfg.deploy = 3, true
		}
		home := func() error {
			return measured(res, func() (int, error) { return runPlan(res, cfg, tr, true) })
		}
		steps = []func() error{refIngress, home, refFlood}
	case "serve-flood":
		// A leg's stream is twice its wall time at time scale 0.5, less a
		// margin for the final drain.
		streamMs := make([]float64, len(floodShare))
		for i, f := range floodShare {
			streamMs[i] = seconds * f * 1000 / timeScale * 0.9
		}
		home := func() error {
			return measured(res, func() (int, error) { return runFlood(res, o.seed, streamMs, tr, true) })
		}
		steps = []func() error{refIngress, burst, burst, burst, home}
	case "serve-ingress":
		home := func() error {
			return measured(res, func() (int, error) { return runIngress(res, o.seed, seconds, tr, true) })
		}
		steps = []func() error{home, burst, burst, burst, refFlood}
	}
	for i, step := range steps {
		if i > 0 {
			time.Sleep(settle)
		}
		if err := step(); err != nil {
			return nil, err
		}
	}
	if plan != nil {
		plan.finish(res)
	}
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// measured runs the workload's own path and records the runtime's
// allocation and GC share over it, per operation the path reports.
func measured(res *result, path func() (int, error)) error {
	before := sampleRuntime()
	ops, err := path()
	if err != nil {
		return err
	}
	after := sampleRuntime()
	res.set("runtime.alloc_bytes_per_op", (after.allocBytes-before.allocBytes)/float64(max(ops, 1)))
	frac := 0.0
	if d := after.cpuTotal - before.cpuTotal; d > 0 {
		frac = (after.cpuGC - before.cpuGC) / d
	}
	res.set("runtime.gc_cpu_frac", frac)
	return nil
}
