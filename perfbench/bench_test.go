package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"ribbon/internal/gateway"
	"ribbon/internal/workload"
)

func TestSupportedQ(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, exp float64
	}{
		{1000, 0.99, 0.99}, // exactly ten beyond p99
		{999, 0.99, 0.95},  // nine beyond p99: fall back
		{200, 0.99, 0.95},  // exactly ten beyond p95
		{199, 0.99, 0.9},
		{100, 0.99, 0.9},
		{40, 0.99, 0.75},
		{5, 0.99, 0.5}, // the median is always reported
		{1000, 0.5, 0.5},
		{100000, 0.99, 0.99}, // never above what was asked for
	} {
		if q := supportedQ(c.n, c.want); q != c.exp {
			t.Errorf("supportedQ(%d, %g) = %g, want %g", c.n, c.want, q, c.exp)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if v := quantile(xs, 0.99); v != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", v)
	}
	if v := quantile(xs, 0.5); v != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", v)
	}
	tl := pct(xs, 0.99)
	if tl.Q != 0.9 || tl.N != 100 || tl.Value != 90 {
		t.Errorf("pct(1..100, 0.99) = %+v, want p90 = 90 over 100 samples", tl)
	}
	if v := quantile(nil, 0.5); v != 0 {
		t.Errorf("quantile of nothing = %g", v)
	}
}

func TestWindowedPct(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	for _, w := range []float64{10, 20} { // two more windows, scaled
		for i := 1; i <= 1000; i++ {
			xs = append(xs, w*float64(i))
		}
	}
	for i := 1; i <= 500; i++ { // a remainder, joined to the last window
		xs = append(xs, 1e6)
	}
	got := windowedPct(xs, 0.99)
	// Window p99s are 990, 9900 and, over 1500 samples, the 1485th value
	// (1e6); the median window is the second.
	if got.Value != 9900 || got.Q != 0.99 || got.N != 3500 || got.Windows != 3 {
		t.Errorf("windowedPct = %+v, want 9900 at p99 over 3 windows of 3500 samples", got)
	}
	if xs[0] != 1 || xs[1500] != 10*501 {
		t.Error("windowedPct reordered its input")
	}
	small := windowedPct(xs[:1500], 0.99)
	if small.Windows != 0 || small.Q != 0.99 || small.Value != 10*485 {
		t.Errorf("one window falls back to the plain percentile, got %+v", small)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40},              // overlaps the first: counted once
		{Parent: 1, Start: 90, End: 120},             // clipped to the parent
		{Parent: 1, Start: 0, End: 100, Async: true}, // another goroutine's work
		{Parent: 2, Start: 0, End: 100},              // not a child
		{Parent: 1, Start: 150, End: 160},            // outside the parent
		{Parent: 1, Start: 50, End: 50},              // empty
	}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestLateness(t *testing.T) {
	start := time.Unix(100, 0)
	due := dueAt(start, 10, 0.5)
	if want := start.Add(5 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("dueAt = %v, want %v", due, want)
	}
	if l := lateness(due, due.Add(1500*time.Microsecond)); l != 1.5 {
		t.Errorf("lateness = %g ms, want 1.5", l)
	}
	if l := lateness(due, due.Add(-time.Millisecond)); l != -1 {
		t.Errorf("an early issue must read negative, got %g", l)
	}
}

// TestOpenLoopConserves drives a small stream through a real gateway: the
// generator never issues early, and the conservation check holds.
func TestOpenLoopConserves(t *testing.T) {
	g, _, err := newGateway(context.Background(), instantBackend{}, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	st := &workload.Stream{Model: serveModel}
	for i := 0; i < 60; i++ {
		c := workload.Classes()[i%3]
		st.Queries = append(st.Queries, workload.Query{ID: i, ArrivalMs: float64(i), Batch: 1, Class: c})
	}
	recs := openLoop(context.Background(), g, st, nil)
	var tl tally
	for _, r := range recs {
		tl.add(r)
		if r.lateMs < 0 {
			t.Errorf("request issued %g ms early", -r.lateMs)
		}
		if r.latMs < r.lateMs/timeScale {
			t.Errorf("latency %g ms shorter than the issue delay %g ms", r.latMs, r.lateMs/timeScale)
		}
	}
	snap := g.Metrics()
	if err := conserved(tl, snap); err != nil {
		t.Fatal(err)
	}
	if tl.served != [3]int{20, 20, 20} {
		t.Errorf("served by tier = %v, want 20 each", tl.served)
	}
	snap.Completed--
	if err := conserved(tl, snap); err == nil {
		t.Error("a gateway that lost a completion passed the conservation check")
	}
	tl.add(reqRec{tier: 1})
	if err := conserved(tl, g.Metrics()); err == nil {
		t.Error("a request the gateway never saw passed the conservation check")
	}
}

func TestTallyOutcomes(t *testing.T) {
	var tl tally
	tl.add(reqRec{done: true, tier: 0, out: gateway.OutcomeQueued})
	tl.add(reqRec{done: true, tier: 2, out: gateway.OutcomeShed})
	tl.add(reqRec{done: true, tier: 1, out: gateway.OutcomeRejected})
	tl.add(reqRec{done: true, tier: 1, out: gateway.OutcomeQueued, err: context.Canceled})
	tl.add(reqRec{tier: 1}) // never answered
	if tl.served != [3]int{1, 0, 0} || tl.shed != [3]int{0, 0, 1} || tl.rejected != [3]int{0, 1, 0} || tl.failed != [3]int{0, 2, 0} {
		t.Errorf("tally = %+v", tl)
	}
}

// TestPlanLayersLinking checks the span tree of one synthetic search: a
// simulator span belongs to the call that claimed its configuration, and
// the prefetch counters add up.
func TestPlanLayersLinking(t *testing.T) {
	spans := []span{
		{Trace: 7, ID: 1, Name: "core.search", Start: 0, End: 100},
		{Trace: 7, ID: 2, Parent: 1, Name: "core.commit", Start: 0, End: 20, Key: "a"},
		{Trace: 7, Name: "serving.evaluate", Start: 1, End: 19, Key: "a"},
		{Trace: 7, ID: 3, Parent: 1, Name: "core.prefetch", Start: 5, End: 40, Async: true, Key: "b"},
		{Trace: 7, Name: "serving.evaluate", Start: 6, End: 39, Key: "b"},
		{Trace: 7, ID: 4, Parent: 1, Name: "core.commit", Start: 30, End: 40, Key: "b"}, // waits on the prefetch
		{Trace: 7, ID: 5, Parent: 1, Name: "core.prefetch", Start: 41, End: 60, Async: true, Key: "c"},
		{Trace: 7, Name: "serving.evaluate", Start: 42, End: 59, Key: "c"},
		{Trace: 7, ID: 6, Parent: 1, Name: "core.prefetch", Start: 45, End: 46, Async: true, Key: "a"}, // cached
	}
	var pl planLayers
	pl.absorb(spans, map[uint64]map[string]bool{7: {"a": true, "b": true}})
	if pl.launched != 2 || pl.hits != 1 || pl.wasted != 1 {
		t.Errorf("launched/hits/wasted = %d/%d/%d, want 2/1/1", pl.launched, pl.hits, pl.wasted)
	}
	if pl.hits+pl.wasted > pl.launched {
		t.Error("hits + wasted exceed launched")
	}
	if pl.evalCalls != 3 || pl.evalBusy != 18+33+17 {
		t.Errorf("evaluate calls/busy = %d/%d", pl.evalCalls, pl.evalBusy)
	}
	if pl.commitWait != 30 || pl.coreSelf != 2+10 {
		t.Errorf("commit wait/self = %d/%d, want 30/12", pl.commitWait, pl.coreSelf)
	}
	if pl.boSelf != 70 {
		t.Errorf("bo self = %d, want 70", pl.boSelf)
	}
	if len(pl.stepSelfMs) != 2 || pl.stepSelfMs[0] != 0 || pl.stepSelfMs[1] != 10e-6 {
		t.Errorf("step self = %v, want [0 1e-05]", pl.stepSelfMs)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, m, w)
			}
			if bounded && (m.Bound == nil || *m.Bound != w.bound) {
				t.Errorf("%s %s: bound differs from %g", kind, m.Name, w.bound)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd, true)
	check("per_layer", bm.PerLayer, perLayer, false)
}
