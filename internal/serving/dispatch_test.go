package serving

import (
	"testing"

	"ribbon/internal/dispatch"
	"ribbon/internal/models"
	"ribbon/internal/workload"
)

// The zero-value dispatch spec and the explicit FCFS kind are the same
// policy: identical results, bit for bit.
func TestDefaultDispatchIsFCFS(t *testing.T) {
	spec := mtwndSpec(t)
	def := NewSimEvaluator(spec, SimOptions{Queries: 2000, Seed: 17})
	fcfs := NewSimEvaluator(spec, SimOptions{Queries: 2000, Seed: 17,
		Dispatch: dispatch.Spec{Kind: dispatch.KindFCFS}})
	a, b := def.Evaluate(Config{3, 4}), fcfs.Evaluate(Config{3, 4})
	if a.Rsat != b.Rsat || a.MeanLatencyMs != b.MeanLatencyMs || a.TailLatencyMs != b.TailLatencyMs {
		t.Fatalf("explicit FCFS differs from default: %+v vs %+v", a, b)
	}
	if a.Policy != "fcfs" || b.Policy != "fcfs" {
		t.Fatalf("Policy = %q / %q, want fcfs", a.Policy, b.Policy)
	}
	if a.Shed != 0 || a.ShedRate != 0 || a.Classes != nil {
		t.Fatalf("legacy stream must have no shed/class stats: %+v", a)
	}
}

// Every built-in policy serves a healthy configuration deterministically and
// keeps it healthy (no shedding at nominal load for non-shedding policies).
func TestAllPoliciesDeterministicAndHealthy(t *testing.T) {
	spec := mtwndSpec(t)
	for _, kind := range dispatch.Kinds() {
		opts := SimOptions{Queries: 2000, Seed: 13, Dispatch: dispatch.Spec{Kind: kind}}
		r1 := NewSimEvaluator(spec, opts).Evaluate(Config{5, 2})
		r2 := NewSimEvaluator(spec, opts).Evaluate(Config{5, 2})
		if r1.Rsat != r2.Rsat || r1.MeanLatencyMs != r2.MeanLatencyMs {
			t.Errorf("%s: not deterministic: %v vs %v", kind, r1.Rsat, r2.Rsat)
		}
		if r1.Policy != string(kind) {
			t.Errorf("%s: Result.Policy = %q", kind, r1.Policy)
		}
		if !r1.MeetsQoS {
			t.Errorf("%s: over-provisioned pool violates QoS (Rsat=%.4f)", kind, r1.Rsat)
		}
		if r1.Shed != 0 {
			t.Errorf("%s: shed %d queries at nominal load", kind, r1.Shed)
		}
	}
}

// The criticality policy sheds Sheddable work under overload and protects
// the Critical tier: Rsat(critical) >= Rsat(standard) >= Rsat(sheddable).
func TestCriticalityShedsAndProtectsUnderOverload(t *testing.T) {
	spec := mtwndSpec(t)
	mix := workload.ClassMix{Critical: 0.2, Standard: 0.6, Sheddable: 0.2}
	opts := SimOptions{Queries: 3000, Seed: 42, RateScale: 4, Mix: mix,
		Dispatch: dispatch.Spec{Kind: dispatch.KindCriticality}}
	r := NewSimEvaluator(spec, opts).Evaluate(Config{3, 4})

	if r.Shed == 0 || r.ShedRate <= 0 {
		t.Fatalf("4x overload must shed sheddable work: %+v", r)
	}
	crit, ok1 := r.ClassStat(workload.ClassCritical)
	std, ok2 := r.ClassStat(workload.ClassStandard)
	shd, ok3 := r.ClassStat(workload.ClassSheddable)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing class stats: %+v", r.Classes)
	}
	if crit.Rsat < std.Rsat || std.Rsat < shd.Rsat {
		t.Fatalf("criticality ordering violated: crit=%.4f std=%.4f shed=%.4f",
			crit.Rsat, std.Rsat, shd.Rsat)
	}
	if crit.Shed != 0 || std.Shed != 0 {
		t.Fatalf("only sheddable queries may be shed: %+v", r.Classes)
	}
	if shd.Shed != r.Shed {
		t.Fatalf("shed accounting mismatch: class %d vs total %d", shd.Shed, r.Shed)
	}
	if r.Queries != crit.Queries+std.Queries+shd.Queries {
		t.Fatalf("class partition does not cover the measured window")
	}

	// FCFS on the same mixed stream treats all classes alike: no shedding,
	// and no systematic critical advantage.
	fr := NewSimEvaluator(spec, SimOptions{Queries: 3000, Seed: 42, RateScale: 4, Mix: mix}).
		Evaluate(Config{3, 4})
	if fr.Shed != 0 {
		t.Fatalf("FCFS must never shed, got %d", fr.Shed)
	}
	if len(fr.Classes) != 3 {
		t.Fatalf("mixed stream must still report class stats under FCFS")
	}
}

// Class annotations do not perturb arrivals or batches: an FCFS run over a
// mixed stream matches the unmixed twin query for query.
func TestClassMixPreservesArrivalsAndBatches(t *testing.T) {
	spec := mtwndSpec(t)
	plain := NewSimEvaluator(spec, SimOptions{Queries: 1500, Seed: 3})
	mixed := NewSimEvaluator(spec, SimOptions{Queries: 1500, Seed: 3,
		Mix: workload.ClassMix{Critical: 1, Standard: 1, Sheddable: 1}})
	for i, q := range plain.Stream().Queries {
		mq := mixed.Stream().Queries[i]
		if q.ArrivalMs != mq.ArrivalMs || q.Batch != mq.Batch {
			t.Fatalf("query %d differs: %+v vs %+v", i, q, mq)
		}
	}
	a, b := plain.Evaluate(Config{5, 0}), mixed.Evaluate(Config{5, 0})
	if a.Rsat != b.Rsat || a.MeanLatencyMs != b.MeanLatencyMs {
		t.Fatalf("class annotations changed FCFS results: %v vs %v", a.Rsat, b.Rsat)
	}
	if len(a.Classes) != 0 || len(b.Classes) != 3 {
		t.Fatalf("class stats presence wrong: %d / %d", len(a.Classes), len(b.Classes))
	}
}

// Least-loaded keeps per-instance queues; the early-termination guard works
// on the pool-wide backlog for it too.
func TestLeastLoadedAbortsOnPressure(t *testing.T) {
	spec := mtwndSpec(t)
	r := NewSimEvaluator(spec, SimOptions{Queries: 2000, Seed: 9, AbortQueueLength: 20,
		Dispatch: dispatch.Spec{Kind: dispatch.KindLeastLoaded}}).Evaluate(Config{1, 0})
	if !r.Aborted {
		t.Fatalf("overloaded evaluation was not aborted")
	}
	if r.MaxQueueLen > 20 {
		t.Fatalf("backlog grew to %d despite limit 20", r.MaxQueueLen)
	}
}

// An invalid dispatch spec is rejected at evaluator construction.
func TestInvalidDispatchSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for unknown policy kind")
		}
	}()
	NewSimEvaluator(mtwndSpec(t), SimOptions{Queries: 100, Dispatch: dispatch.Spec{Kind: "bogus"}})
}

func TestModelsLookupForDispatch(t *testing.T) {
	// Guard the test fixture: the MT-WND profile the dispatch tests lean on
	// must stay a recommendation-class model with a finite QoS target.
	m := models.MustLookup("MT-WND")
	if m.QoSLatencyMs <= 0 {
		t.Fatalf("MT-WND QoS target %v", m.QoSLatencyMs)
	}
}
