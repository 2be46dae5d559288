package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ribbon/internal/serving"
)

// The prefetch property: the parallel search commits the canonical
// trajectory whichever prefetch path the driver picks, so the full
// SearchResult — trace, objectives, accounting — is byte-identical (%#v) to
// the P=1 search at any Parallelism, under any GOMAXPROCS. It runs on the
// simulator, on an instant evaluator that must keep the driver on the q-EI
// batch, and on one well past the 8ms switch point that must move it to
// the liar chain, so both prefetch paths are held to the contract. Runs
// under `go test -race` in CI, so it also proves the driver is race-free.
func TestModeTrajectoryProperty(t *testing.T) {
	sim := func(seed uint64) serving.Evaluator { return parTestEval(seed, 1) }
	instant := func(seed uint64) serving.Evaluator {
		return serving.NewCachingEvaluator(instantInner{spec: parTestEval(seed, 1).Spec()})
	}
	slow := func(seed uint64) serving.Evaluator {
		return serving.NewCachingEvaluator(slowInner{inner: parTestEval(seed, 1), d: 25 * time.Millisecond})
	}
	cases := []struct {
		name   string
		ev     func(uint64) serving.Evaluator
		seeds  []uint64
		budget int
		// path is the prefetch every parallel run must take: "batch"
		// forbids a liar-chain launch, "liar" requires one, and "" checks
		// neither, since the simulator's cost under -race is unknown.
		path string
	}{
		{"sim", sim, []uint64{1, 2, 3}, 18, ""},
		{"instant", instant, []uint64{4}, 18, "batch"},
		{"slow", slow, []uint64{6}, 10, "liar"},
	}
	for _, gmp := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(gmp)
		for _, c := range cases {
			for _, seed := range c.seeds {
				ref := NewSearcher(c.ev(seed), []int{5, 8, 8}, seed, Options{}).Run(c.budget)
				refBytes := fmt.Sprintf("%#v", ref)
				for _, p := range []int{1, 2, 4, 8} {
					s := NewSearcher(c.ev(seed), []int{5, 8, 8}, seed, Options{Parallelism: p})
					got := s.Run(c.budget)
					if gb := fmt.Sprintf("%#v", got); gb != refBytes {
						t.Fatalf("%s gomaxprocs=%d seed=%d p=%d: SearchResult diverged:\n got %s\nwant %s",
							c.name, gmp, seed, p, gb, refBytes)
					}
					if p == 1 {
						continue
					}
					if c.path == "liar" && s.liarLaunches == 0 {
						t.Fatalf("%s gomaxprocs=%d p=%d: never ran the liar chain", c.name, gmp, p)
					}
					if c.path == "batch" && (s.liarLaunches != 0 || s.batchedLaunches == 0) {
						t.Fatalf("%s gomaxprocs=%d p=%d: liar=%d batched=%d launches, want batched only",
							c.name, gmp, p, s.liarLaunches, s.batchedLaunches)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// instantInner is a closed-form evaluator: zero simulation work, so its
// measured per-evaluation cost stays far under the adaptive threshold even
// with the race detector's instrumentation slowdown.
type instantInner struct{ spec serving.PoolSpec }

func (e instantInner) Spec() serving.PoolSpec { return e.spec }
func (e instantInner) Evaluate(c serving.Config) serving.Result {
	n := 0
	for _, v := range c {
		n += v
	}
	rsat := 1 - 1/float64(n+2)
	return serving.Result{
		Config:      c.Clone(),
		CostPerHour: e.spec.Cost(c),
		Rsat:        rsat,
		MeetsQoS:    rsat >= e.spec.QoSPercentile,
		Queries:     100,
	}
}

// Regression for the lookahead-depth bug: a cheap evaluator must never pay
// the speculative liar chain's wall-clock. An evaluator far under the 8ms
// threshold has to stay on q-EI batched prefetch for the entire search.
func TestAutoModeStaysBatchedOnCheapEvaluator(t *testing.T) {
	ev := serving.NewCachingEvaluator(instantInner{spec: parTestEval(4, 1).Spec()})
	s := NewSearcher(ev, []int{5, 8, 8}, 4, Options{Parallelism: 4})
	s.Run(18)
	if s.liarLaunches != 0 {
		t.Fatalf("cheap evaluator paid for %d liar-chain launches", s.liarLaunches)
	}
	if s.batchedLaunches == 0 {
		t.Fatalf("no batched prefetch launches recorded")
	}
}

// slowInner delays every (uncached) evaluation, modeling a deploy-like
// evaluator whose cost crosses the adaptive threshold.
type slowInner struct {
	inner serving.Evaluator
	d     time.Duration
}

func (s slowInner) Spec() serving.PoolSpec { return s.inner.Spec() }
func (s slowInner) Evaluate(c serving.Config) serving.Result {
	time.Sleep(s.d)
	return s.inner.Evaluate(c)
}

// Once measured evaluations are expensive, the driver switches to the
// deeper speculative liar chain.
func TestAutoModeSwitchesToSpeculativeOnExpensiveEvaluator(t *testing.T) {
	base := parTestEval(6, 1)
	ev := serving.NewCachingEvaluator(slowInner{inner: base, d: 25 * time.Millisecond})
	s := NewSearcher(ev, []int{5, 8, 8}, 6, Options{Parallelism: 2})
	s.Run(10)
	if s.liarLaunches == 0 {
		t.Fatalf("expensive evaluator never escalated to the liar chain")
	}
}

// The threshold logic itself, isolated from timing: an unmeasured or cheap
// cost resolves to the q-EI batch, an expensive one to the liar chain.
func TestPrefetchModeSelection(t *testing.T) {
	d := &driver{}
	if d.useLiarChain() {
		t.Fatalf("unmeasured cost picked the liar chain")
	}
	d.evalNs.Store(liarCostThresholdNs - 1)
	if d.useLiarChain() {
		t.Fatalf("cheap cost picked the liar chain")
	}
	d.evalNs.Store(liarCostThresholdNs)
	if !d.useLiarChain() {
		t.Fatalf("expensive cost kept the q-EI batch")
	}
}
