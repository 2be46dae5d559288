package serving

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ribbon/internal/models"
	"ribbon/internal/workload"
)

func mtwndSpec(t *testing.T) PoolSpec {
	t.Helper()
	return MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "t3")
}

func TestConfigKeyStringParse(t *testing.T) {
	c := Config{3, 4, 0}
	if c.Key() != "3+4+0" {
		t.Fatalf("Key = %q", c.Key())
	}
	if c.String() != "(3 + 4 + 0)" {
		t.Fatalf("String = %q", c.String())
	}
	p, err := ParseConfig("3+4+0")
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if p[i] != c[i] {
			t.Fatalf("ParseConfig mismatch: %v", p)
		}
	}
	if _, err := ParseConfig("3+x"); err == nil {
		t.Fatalf("accepted garbage")
	}
	if _, err := ParseConfig("3+-1"); err == nil {
		t.Fatalf("accepted negative count")
	}
}

func TestConfigDominatedBy(t *testing.T) {
	a := Config{2, 3}
	b := Config{3, 3}
	if !a.DominatedBy(b) {
		t.Fatalf("{2,3} must be dominated by {3,3}")
	}
	if b.DominatedBy(a) {
		t.Fatalf("{3,3} must not be dominated by {2,3}")
	}
	if !a.DominatedBy(a) {
		t.Fatalf("dominance must be reflexive")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("length mismatch must panic")
		}
	}()
	a.DominatedBy(Config{1})
}

func TestConfigCloneIndependent(t *testing.T) {
	a := Config{1, 2}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Fatalf("Clone aliases memory")
	}
	if a.Total() != 3 {
		t.Fatalf("Total = %d", a.Total())
	}
}

func TestNewPoolSpecValidation(t *testing.T) {
	m := models.MustLookup("MT-WND")
	if _, err := NewPoolSpec(m, 0.99, "g4dn", "g4dn"); err == nil {
		t.Fatalf("accepted duplicate family")
	}
	if _, err := NewPoolSpec(m, 0.99, "nope"); err == nil {
		t.Fatalf("accepted unknown family")
	}
	if _, err := NewPoolSpec(m, 1.5, "g4dn"); err == nil {
		t.Fatalf("accepted percentile out of range")
	}
	if _, err := NewPoolSpec(m, 0.99); err == nil {
		t.Fatalf("accepted empty pool")
	}
}

func TestPoolSpecCost(t *testing.T) {
	spec := mtwndSpec(t)
	got := spec.Cost(Config{3, 4})
	want := 3*0.526 + 4*0.1664
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cost = %g, want %g", got, want)
	}
	if spec.Dim() != 2 {
		t.Fatalf("Dim = %d", spec.Dim())
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	spec := mtwndSpec(t)
	ev := NewSimEvaluator(spec, SimOptions{Queries: 1500, Seed: 11})
	a := ev.Evaluate(Config{3, 4})
	b := ev.Evaluate(Config{3, 4})
	if a.Rsat != b.Rsat || a.MeanLatencyMs != b.MeanLatencyMs {
		t.Fatalf("evaluation not deterministic: %v vs %v", a, b)
	}
}

func TestEvaluateEmptyConfig(t *testing.T) {
	spec := mtwndSpec(t)
	ev := NewSimEvaluator(spec, SimOptions{Queries: 100, Seed: 1})
	r := ev.Evaluate(Config{0, 0})
	if r.Rsat != 0 || r.MeetsQoS {
		t.Fatalf("empty pool must violate everything: %+v", r)
	}
	if r.CostPerHour != 0 {
		t.Fatalf("empty pool must cost 0")
	}
	if !math.IsInf(r.MeanLatencyMs, 1) {
		t.Fatalf("empty pool latency must be +inf")
	}
}

func TestEvaluateMismatchedConfigPanics(t *testing.T) {
	spec := mtwndSpec(t)
	ev := NewSimEvaluator(spec, SimOptions{Queries: 100, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	ev.Evaluate(Config{1, 2, 3})
}

// More instances can only improve (statistically) the satisfaction rate:
// check a monotone chain.
func TestRsatImprovesWithMoreInstances(t *testing.T) {
	spec := mtwndSpec(t)
	ev := NewSimEvaluator(spec, SimOptions{Queries: 3000, Seed: 21})
	prev := -1.0
	for _, cfg := range []Config{{1, 0}, {2, 0}, {4, 0}, {6, 0}} {
		r := ev.Evaluate(cfg)
		if r.Rsat < prev-0.005 { // tiny tolerance for stochastic wiggle
			t.Fatalf("Rsat decreased when adding instances: %v -> %v at %v", prev, r.Rsat, cfg)
		}
		prev = r.Rsat
	}
}

// The paper's Fig. 4 anchor example: the exact qualitative pattern of
// homogeneous vs diverse configurations for MT-WND on (g4dn, t3).
func TestFig4Pattern(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec := mtwndSpec(t)
	ev := NewSimEvaluator(spec, SimOptions{Queries: 8000, Seed: 42})
	eval := func(g, t3 int) Result { return ev.Evaluate(Config{g, t3}) }

	r40 := eval(4, 0)
	r50 := eval(5, 0)
	r012 := eval(0, 12)
	r24 := eval(2, 4)
	r34 := eval(3, 4)
	r44 := eval(4, 4)

	if r40.MeetsQoS {
		t.Errorf("(4+0) must violate QoS, got Rsat=%.4f", r40.Rsat)
	}
	if !r50.MeetsQoS {
		t.Errorf("(5+0) must meet QoS, got Rsat=%.4f", r50.Rsat)
	}
	if r012.MeetsQoS {
		t.Errorf("(0+12) must violate QoS, got Rsat=%.4f", r012.Rsat)
	}
	if r012.CostPerHour >= r50.CostPerHour {
		t.Errorf("(0+12) must be cheaper than (5+0)")
	}
	if r24.MeetsQoS {
		t.Errorf("(2+4) must violate QoS, got Rsat=%.4f", r24.Rsat)
	}
	if !r34.MeetsQoS {
		t.Errorf("(3+4) must meet QoS, got Rsat=%.4f", r34.Rsat)
	}
	if r34.CostPerHour >= r50.CostPerHour {
		t.Errorf("(3+4) must be cheaper than the homogeneous optimum")
	}
	if !r44.MeetsQoS || r44.CostPerHour <= r50.CostPerHour {
		t.Errorf("(4+4) must meet QoS at a cost above (5+0)")
	}
	saving := 1 - r34.CostPerHour/r50.CostPerHour
	if saving < 0.05 || saving > 0.25 {
		t.Errorf("diverse saving %.1f%% outside plausible band", 100*saving)
	}
}

func TestTraceEvaluatorReplays(t *testing.T) {
	spec := mtwndSpec(t)
	st := workload.Generate(spec.Model, workload.Options{Queries: 1200, Seed: 33})
	ev1 := NewTraceEvaluator(spec, SimOptions{Queries: 1200, Seed: 33}, st)
	ev2 := NewSimEvaluator(spec, SimOptions{Queries: 1200, Seed: 33})
	a := ev1.Evaluate(Config{4, 2})
	b := ev2.Evaluate(Config{4, 2})
	if a.Rsat != b.Rsat {
		t.Fatalf("trace replay differs from generation: %v vs %v", a.Rsat, b.Rsat)
	}
	if ev1.Stream() != st {
		t.Fatalf("Stream accessor broken")
	}
}

func TestTraceEvaluatorRejectsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for empty trace")
		}
	}()
	NewTraceEvaluator(mtwndSpec(t), SimOptions{}, &workload.Stream{})
}

// A batch below 1 has no service time; the trace is rejected up front rather
// than read as a zero latency from the service table.
func TestTraceEvaluatorRejectsBadBatch(t *testing.T) {
	m := models.MustLookup("MT-WND")
	for _, batch := range []int{0, -3} {
		st := workload.Generate(m, workload.Options{Queries: 50, Seed: 1})
		st.Queries[17].Batch = batch
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "batch") {
					t.Fatalf("trace query with batch %d: got panic %v, want a batch rejection", batch, r)
				}
			}()
			NewTraceEvaluator(mtwndSpec(t), SimOptions{}, st)
		}()
	}
}

func TestWarmupExclusion(t *testing.T) {
	spec := mtwndSpec(t)
	ev := NewSimEvaluator(spec, SimOptions{Queries: 1000, Seed: 5, WarmupFraction: 0.25})
	r := ev.Evaluate(Config{5, 0})
	if r.Queries != 750 {
		t.Fatalf("measured %d queries, want 750 after 25%% warmup", r.Queries)
	}
	ev2 := NewSimEvaluator(spec, SimOptions{Queries: 1000, Seed: 5, WarmupFraction: -1})
	if r2 := ev2.Evaluate(Config{5, 0}); r2.Queries != 1000 {
		t.Fatalf("negative warmup must disable exclusion, got %d", r2.Queries)
	}
}

func TestViolationRate(t *testing.T) {
	r := Result{Rsat: 0.97}
	if math.Abs(r.ViolationRate()-0.03) > 1e-12 {
		t.Fatalf("ViolationRate = %g", r.ViolationRate())
	}
}

func TestCachingEvaluatorCountsDistinct(t *testing.T) {
	spec := mtwndSpec(t)
	ev := NewCachingEvaluator(NewSimEvaluator(spec, SimOptions{Queries: 800, Seed: 3}))
	if ev.Spec().Model.Name != "MT-WND" {
		t.Fatalf("Spec passthrough broken")
	}
	a := ev.Evaluate(Config{5, 0})
	b := ev.Evaluate(Config{5, 0})
	if a.Rsat != b.Rsat {
		t.Fatalf("cache returned different results")
	}
	if ev.Samples() != 1 {
		t.Fatalf("Samples = %d, want 1 (re-evaluation is free)", ev.Samples())
	}
	ev.Evaluate(Config{1, 0})
	if ev.Samples() != 2 {
		t.Fatalf("Samples = %d, want 2", ev.Samples())
	}
	if ev.Violations() != 1 { // (1,0) violates, (5,0) meets
		t.Fatalf("Violations = %d, want 1", ev.Violations())
	}
	wantCost := 5*0.526 + 1*0.526
	if math.Abs(ev.ExplorationCost()-wantCost) > 1e-9 {
		t.Fatalf("ExplorationCost = %g, want %g", ev.ExplorationCost(), wantCost)
	}
	if _, ok := ev.Peek(Config{5, 0}); !ok {
		t.Fatalf("Peek missed cached config")
	}
	if _, ok := ev.Peek(Config{9, 9}); ok {
		t.Fatalf("Peek invented a result")
	}
	if len(ev.History()) != 2 {
		t.Fatalf("History length %d", len(ev.History()))
	}
	ev.ResetAccounting()
	if ev.Samples() != 0 || ev.Violations() != 0 || ev.ExplorationCost() != 0 {
		t.Fatalf("ResetAccounting did not clear counters")
	}
	if _, ok := ev.Peek(Config{5, 0}); !ok {
		t.Fatalf("ResetAccounting must keep the cache")
	}
}

// Property: dominance is a partial order compatible with cost — if a is
// dominated by b then cost(a) <= cost(b).
func TestDominanceImpliesCheaper(t *testing.T) {
	spec := mtwndSpec(t)
	f := func(a0, a1, d0, d1 uint8) bool {
		a := Config{int(a0 % 8), int(a1 % 12)}
		b := Config{a[0] + int(d0%4), a[1] + int(d1%4)}
		if !a.DominatedBy(b) {
			return false
		}
		return spec.Cost(a) <= spec.Cost(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
