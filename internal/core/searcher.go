package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ribbon/internal/bo"
	"ribbon/internal/serving"
)

// Step records one configuration evaluation during a search.
type Step struct {
	// Index is the 0-based evaluation order.
	Index int
	// Config and Result describe the deployment.
	Config serving.Config
	Result serving.Result
	// Objective is the Eq. 2 value the strategy observed.
	Objective float64
	// BestCost is the cheapest QoS-meeting cost seen up to and including
	// this step (+Inf before any meeting configuration).
	BestCost float64
	// Estimated marks warm-start pseudo-observations that were never
	// deployed (load adaptation, Sec. 4); they cost no samples.
	Estimated bool
}

// SearchResult summarizes a completed search.
type SearchResult struct {
	// Strategy is the searching strategy's name.
	Strategy string
	// BestConfig is the cheapest QoS-meeting configuration found; nil if
	// none was found within budget.
	BestConfig serving.Config
	// BestResult is its evaluation.
	BestResult serving.Result
	// Found reports whether any QoS-meeting configuration was found.
	Found bool
	// Steps is the full evaluation trace in order.
	Steps []Step
	// Samples is the number of real (non-estimated) evaluations.
	Samples int
}

// SamplesToReachCost returns the number of real samples needed before a
// QoS-meeting configuration with cost <= target was evaluated, and whether
// that happened. It is the Fig. 10 metric.
func (r SearchResult) SamplesToReachCost(target float64) (int, bool) {
	n := 0
	for _, s := range r.Steps {
		if !s.Estimated {
			n++
		}
		if s.Result.MeetsQoS && s.Result.CostPerHour <= target+1e-9 {
			return n, true
		}
	}
	return n, false
}

// Strategy is a search-space exploration method: Ribbon or one of the
// competing baselines (RANDOM, Hill-Climb, RSM).
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Search explores the evaluator's pool within the per-type bounds
	// using at most budget evaluations.
	Search(ev serving.Evaluator, bounds []int, budget int, seed uint64) SearchResult
}

// Options tunes the Ribbon searcher.
type Options struct {
	// PruneThreshold is the QoS-violation margin beyond which dominance
	// pruning activates (theta in Sec. 4); 0.01 when zero.
	PruneThreshold float64
	// Xi is the EI exploration offset passed to the BO engine.
	Xi float64
	// DisableRounding turns off the Eq. 3 rounding kernel (ablation).
	DisableRounding bool
	// DisablePruning turns off the active prune set (ablation).
	DisablePruning bool
	// UseNaiveObjective swaps Eq. 2 for the rejected single-metric
	// objective (ablation).
	UseNaiveObjective bool
	// InitialConfigs seeds the search; when nil the searcher starts from
	// the all-bounds corner and the half-bounds midpoint, mirroring the
	// paper's "arrange configurations in increasing order" setup.
	InitialConfigs []serving.Config
	// Progress, when non-nil, is invoked synchronously after every step
	// is recorded — real evaluations and warm-start pseudo-observations
	// alike (the latter have Step.Estimated set). It lets callers stream
	// a long search; it must not retain the Step's slices past the call.
	Progress func(Step)
	// Parallelism bounds how many configurations evaluate concurrently;
	// 0 or 1 keeps the single-threaded loop. The parallel loop prefetches:
	// the committed trajectory is always the canonical one, and
	// SearchResult plus the exploration accounting are bit-identical at
	// any setting. Extra workers warm the evaluator with pending seed
	// configurations plus predicted proposals — the q-EI runner-ups while
	// evaluations are cheap, the constant-liar chain once the measured
	// per-evaluation cost makes it pay — and when a prediction hits, the
	// next step commits without waiting. It takes effect when the
	// evaluator supports prefetch (serving.CachingEvaluator does); see
	// docs/performance.md.
	Parallelism int
}

// Searcher runs Ribbon's BO search over one pool. Create with NewSearcher,
// drive with Step or Run, and inspect Trace/BestMeeting between steps.
type Searcher struct {
	name    string
	ev      serving.Evaluator
	spec    serving.PoolSpec
	bounds  []int
	opts    Options
	opt     *bo.Optimizer
	prune   *PruneSet
	trace   []Step
	samples int

	bestMeeting serving.Result
	hasBest     bool

	seeded bool
	queue  []serving.Config // pending initial configs

	// wantTopK asks next() for a q-EI batch of that size (head + prefetch
	// runner-ups) instead of a single suggestion; runnerUps holds the tail
	// of the last batch for the driver to enqueue. Both are per-iteration
	// scheduling state — the head is bit-identical to Suggest either way.
	wantTopK  int
	runnerUps [][]int

	// Prefetch-strategy counters, for tests and diagnostics.
	batchedLaunches int
	liarLaunches    int
}

// NewSearcher builds a Ribbon searcher over the evaluator's pool with the
// given per-type bounds.
func NewSearcher(ev serving.Evaluator, bounds []int, seed uint64, opts Options) *Searcher {
	spec := ev.Spec()
	if len(bounds) != spec.Dim() {
		panic("core: bounds do not match pool dimensionality")
	}
	if opts.PruneThreshold == 0 {
		opts.PruneThreshold = 0.01
	}
	if opts.PruneThreshold < 0 {
		panic("core: negative prune threshold")
	}
	s := &Searcher{
		name:   "RIBBON",
		ev:     ev,
		spec:   spec,
		bounds: append([]int(nil), bounds...),
		opts:   opts,
		opt: bo.New(bounds, bo.Options{
			Rounding: !opts.DisableRounding,
			Xi:       opts.Xi,
			Seed:     seed,
		}),
		prune: &PruneSet{},
	}
	s.opt.SetConstraint(s.allowed)
	s.queue = opts.InitialConfigs
	if s.queue == nil {
		corner := make(serving.Config, len(bounds))
		mid := make(serving.Config, len(bounds))
		for i, b := range bounds {
			corner[i] = b
			mid[i] = (b + 1) / 2
		}
		s.queue = []serving.Config{corner, mid}
	}
	return s
}

// allowed is the acquisition constraint: a candidate is skipped when the
// prune set covers it or when it cannot undercut the incumbent QoS-meeting
// cost (Sec. 4: such configurations return values below the incumbent's
// objective regardless of their QoS outcome).
func (s *Searcher) allowed(x []int) bool {
	cfg := serving.Config(x)
	if !s.opts.DisablePruning {
		if s.prune.Pruned(cfg) {
			return false
		}
		if s.hasBest && s.spec.Cost(cfg) >= s.bestMeeting.CostPerHour-1e-9 {
			return false
		}
	}
	return true
}

// objective dispatches between Eq. 2 and the ablation objective.
func (s *Searcher) objective(res serving.Result) float64 {
	if s.opts.UseNaiveObjective {
		return NaiveObjective(s.spec, s.bounds, res)
	}
	return Objective(s.spec, s.bounds, res)
}

// evaluate runs one real deployment and performs all bookkeeping.
func (s *Searcher) evaluate(cfg serving.Config) Step {
	res := s.ev.Evaluate(cfg)
	obj := s.objective(res)
	s.opt.Observe(cfg, obj)
	s.samples++

	if res.MeetsQoS {
		if !s.hasBest || res.CostPerHour < s.bestMeeting.CostPerHour {
			s.bestMeeting = res
			s.hasBest = true
		}
	} else if res.Rsat < s.spec.QoSPercentile-s.opts.PruneThreshold {
		s.prune.AddCeiling(cfg)
	}

	st := Step{
		Index:     len(s.trace),
		Config:    cfg.Clone(),
		Result:    res,
		Objective: obj,
		BestCost:  s.bestCost(),
	}
	s.trace = append(s.trace, st)
	if s.opts.Progress != nil {
		s.opts.Progress(st)
	}
	return st
}

func (s *Searcher) bestCost() float64 {
	if !s.hasBest {
		return math.Inf(1)
	}
	return s.bestMeeting.CostPerHour
}

// next picks the configuration the canonical trajectory evaluates now: the
// next seeded configuration if any remain, otherwise the BO suggestion.
// When the driver asked for batched prefetch (wantTopK > 1) the suggestion
// comes from a single q-EI scan whose head is bit-identical to Suggest;
// the runner-ups are stashed for the driver, so which path ran can never
// show in the trajectory.
func (s *Searcher) next() (serving.Config, bool) {
	s.runnerUps = nil
	if len(s.queue) > 0 {
		cfg := s.queue[0].Clone()
		s.queue = s.queue[1:]
		if len(cfg) != len(s.bounds) {
			panic(fmt.Sprintf("core: seed config %v does not match bounds", cfg))
		}
		return cfg, true
	}
	if s.wantTopK > 1 {
		batch, ok := s.opt.SuggestTopK(s.wantTopK)
		if !ok {
			return nil, false
		}
		s.runnerUps = batch[1:]
		return serving.Config(batch[0]), true
	}
	x, ok := s.opt.Suggest()
	if !ok {
		return nil, false
	}
	return serving.Config(x), true
}

// Step performs one search iteration: the next seeded configuration if any
// remain, otherwise the BO suggestion. It returns false when the search
// space is exhausted or fully pruned.
func (s *Searcher) Step() (Step, bool) {
	cfg, ok := s.next()
	if !ok {
		return Step{}, false
	}
	return s.evaluate(cfg), true
}

// Run drives the search until the evaluation budget is spent or the space is
// exhausted, then summarizes.
func (s *Searcher) Run(budget int) SearchResult {
	return s.RunContext(context.Background(), budget)
}

// RunContext is Run with cooperative cancellation: the context is checked
// before every evaluation, so a cancelled search stops at the next step
// boundary and the partial trace is still summarized. Callers that need to
// distinguish "budget spent" from "cancelled" should inspect ctx.Err().
//
// With Options.Parallelism > 1 and a prefetch-capable evaluator, a bounded
// worker pool warms the evaluator with predicted proposals while each step
// evaluates; observations still commit strictly in trajectory order, so the
// result is bit-identical at any worker count.
func (s *Searcher) RunContext(ctx context.Context, budget int) SearchResult {
	drv := s.startDriver()
	if drv != nil {
		defer drv.stop()
	}
	for s.samples < budget {
		if ctx.Err() != nil {
			break
		}
		liar := false
		s.wantTopK = 0
		if drv != nil {
			liar = drv.useLiarChain()
			if !liar {
				s.wantTopK = 1 + s.opts.Parallelism
			}
		}
		cfg, ok := s.next()
		if !ok {
			break
		}
		if drv != nil {
			drv.launch(s, cfg, budget, liar)
		}
		s.evaluate(cfg)
	}
	return s.Summary()
}

// lookaheadEvaluator is the speculative-prefetch capability the parallel
// driver needs; serving.CachingEvaluator implements it.
type lookaheadEvaluator interface {
	serving.Evaluator
	// Lookahead warms the evaluator's cache with cfg without committing it
	// to any accounting. It must be safe for concurrent use.
	Lookahead(cfg serving.Config)
}

// driver is the bounded prefetching worker pool of a parallel search.
type driver struct {
	ev    lookaheadEvaluator
	tasks chan serving.Config
	quit  chan struct{}
	wg    sync.WaitGroup

	// evalNs is an EWMA of measured prefetch wall-clock in nanoseconds,
	// updated by the workers and read by the main loop's prefetch
	// selection; 0 means "not yet measured".
	evalNs atomic.Int64
}

// liarCostThresholdNs is the measured per-evaluation cost above which the
// driver prefers the constant-liar chain: below it, evaluations are
// too cheap to hide the chain's one-acquisition-scan-per-proposal cost on
// the main goroutine, and the single-scan q-EI batch wins.
const liarCostThresholdNs = 8e6 // 8ms

// startDriver builds the worker pool, or returns nil when the search is
// single-threaded (Parallelism <= 1) or the evaluator cannot prefetch.
func (s *Searcher) startDriver() *driver {
	p := s.opts.Parallelism
	if p <= 1 {
		return nil
	}
	lev, ok := s.ev.(lookaheadEvaluator)
	if !ok {
		return nil
	}
	d := &driver{ev: lev, tasks: make(chan serving.Config, 4*p), quit: make(chan struct{})}
	for i := 0; i < p; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				select {
				case <-d.quit:
					return
				case cfg, ok := <-d.tasks:
					if !ok {
						return
					}
					start := time.Now()
					d.ev.Lookahead(cfg)
					d.observeCost(time.Since(start))
				}
			}
		}()
	}
	return d
}

// observeCost folds one measured prefetch duration into the EWMA
// (alpha = 1/4). Lock-free: concurrent workers race benignly on the CAS.
func (d *driver) observeCost(dt time.Duration) {
	for {
		old := d.evalNs.Load()
		var next int64
		if old == 0 {
			next = int64(dt)
		} else {
			next = old - old/4 + int64(dt)/4
		}
		if next <= 0 {
			next = 1
		}
		if d.evalNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// useLiarChain picks the prefetch for the next launch from the measured
// evaluation cost: the q-EI batch until evaluations are expensive enough to
// pay for liar-chain speculation. The choice only affects what the workers
// warm, never what the search commits, so timing jitter cannot leak into
// the result.
func (d *driver) useLiarChain() bool {
	return d.evalNs.Load() >= liarCostThresholdNs
}

// stop abandons queued speculations and waits for the workers; in-flight
// evaluations run to completion first, so stopping — like cancelling the
// serial search — can take up to one evaluation window. Waiting is
// deliberate: after RunContext returns, no goroutine of this search touches
// the caller's evaluator again.
func (d *driver) stop() {
	close(d.quit)
	d.wg.Wait()
}

// enqueue hands a config to the pool without ever blocking the main loop;
// a full queue simply drops the speculation.
func (d *driver) enqueue(cfg serving.Config) {
	select {
	case d.tasks <- cfg:
	default:
	}
}

// launch dispatches the pending step's evaluation to the pool and fills the
// remaining capacity with prefetch: first the still-queued seed
// configurations (certain future evaluations), then predicted proposals.
// Without liar those are the q-EI runner-ups next() already ranked — zero
// extra acquisition work, lookahead depth Parallelism. With liar the
// constant-liar chain streams proposals element by element, at depth
// 2*Parallelism; the chain computes on the main goroutine while the workers
// evaluate, which only pays off when evaluations are slow. Prefetches queued by earlier steps but not yet
// picked up are dropped first — this step's batch is computed from
// strictly more information — and depth never exceeds the evaluations the
// budget can still spend.
func (d *driver) launch(s *Searcher, cfg serving.Config, budget int, liar bool) {
	for {
		select {
		case <-d.tasks:
			continue
		default:
		}
		break
	}
	d.enqueue(cfg)
	k := s.opts.Parallelism
	if liar {
		k = 2 * s.opts.Parallelism
	}
	if slots := budget - s.samples - 1; k > slots {
		k = slots
	}
	if k <= 0 {
		return
	}
	for _, c := range s.queue {
		if k == 0 {
			return
		}
		d.enqueue(c.Clone())
		k--
	}
	if liar {
		s.liarLaunches++
		s.opt.Speculate(cfg, k, func(x []int) {
			d.enqueue(serving.Config(append([]int(nil), x...)))
		})
		return
	}
	s.batchedLaunches++
	for _, x := range s.runnerUps {
		if k == 0 {
			return
		}
		d.enqueue(serving.Config(x))
		k--
	}
}

// Summary returns the result so far without advancing the search.
func (s *Searcher) Summary() SearchResult {
	r := SearchResult{
		Strategy: s.name,
		Found:    s.hasBest,
		Steps:    append([]Step(nil), s.trace...),
		Samples:  s.samples,
	}
	if s.hasBest {
		r.BestConfig = s.bestMeeting.Config.Clone()
		r.BestResult = s.bestMeeting
	}
	return r
}

// BestMeeting returns the cheapest QoS-meeting evaluation observed so far.
func (s *Searcher) BestMeeting() (serving.Result, bool) { return s.bestMeeting, s.hasBest }

// Trace returns the evaluation history.
func (s *Searcher) Trace() []Step { return append([]Step(nil), s.trace...) }

// RibbonStrategy adapts the Searcher to the Strategy interface used by the
// head-to-head experiments.
type RibbonStrategy struct {
	// Opts tunes every search launched by this strategy.
	Opts Options
}

// Name returns "RIBBON".
func (RibbonStrategy) Name() string { return "RIBBON" }

// Search runs a fresh Ribbon search.
func (r RibbonStrategy) Search(ev serving.Evaluator, bounds []int, budget int, seed uint64) SearchResult {
	return NewSearcher(ev, bounds, seed, r.Opts).Run(budget)
}
