package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"ribbon/internal/core"
	"ribbon/internal/experiments"
	"ribbon/internal/models"
	"ribbon/internal/serving"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

const (
	planBudget      = 40
	planParallelism = 2
	planQueries     = 4000
	planQoS         = 0.99
	boundsMaxPerTyp = 24
	deployWindow    = 25 * time.Millisecond
)

// planModel is one model's search input: its Table 3 pool, the stream the
// simulator replays, and the bounds discovered during set-up.
type planModel struct {
	name   string
	seed   uint64
	eval   *serving.SimEvaluator
	bounds []int
}

// planInput is the five-model sweep input derived from one sub-seed.
type planInput struct {
	models    []planModel
	setup     time.Duration
	generate  time.Duration
	discovery time.Duration
}

// setupPlan generates each model's stream and discovers its bounds. Bounds
// discovery uses its own evaluator, so it charges nothing to the search.
func setupPlan(seed uint64) (planInput, error) {
	var in planInput
	t0 := time.Now()
	for _, name := range experiments.ModelNames() {
		m := models.MustLookup(name)
		spec, err := serving.NewPoolSpec(m, planQoS, experiments.PoolFor(name)...)
		if err != nil {
			return in, err
		}
		g0 := time.Now()
		st := workload.Generate(m, workload.Options{Queries: planQueries, Seed: seed})
		in.generate += time.Since(g0)
		ev := serving.NewTraceEvaluator(spec, serving.SimOptions{Seed: seed}, st)
		b0 := time.Now()
		bounds, err := core.DiscoverBounds(serving.NewCachingEvaluator(ev), boundsMaxPerTyp)
		in.discovery += time.Since(b0)
		if err != nil {
			return in, fmt.Errorf("bounds for %s: %w", name, err)
		}
		in.models = append(in.models, planModel{name: name, seed: seed, eval: ev, bounds: bounds})
	}
	in.setup = time.Since(t0)
	return in, nil
}

// simEval is the simulator seen by the search: in the deploy regime every
// evaluation is preceded by a fixed measurement window. With a tracer it
// records a span for the window and one for the simulator call.
type simEval struct {
	ev     *serving.SimEvaluator
	deploy bool
	tr     *tracer
	trace  uint64
}

func (e *simEval) Spec() serving.PoolSpec { return e.ev.Spec() }

func (e *simEval) Evaluate(cfg serving.Config) serving.Result {
	if e.tr == nil {
		if e.deploy {
			time.Sleep(deployWindow)
		}
		return e.ev.Evaluate(cfg)
	}
	key := cfg.Key()
	if e.deploy {
		s := e.tr.now()
		time.Sleep(deployWindow)
		e.tr.record(span{Trace: e.trace, Name: "deploy.window", Start: s, End: e.tr.now(), Key: key})
	}
	s := e.tr.now()
	r := e.ev.Evaluate(cfg)
	e.tr.record(span{Trace: e.trace, Name: "serving.evaluate", Start: s, End: e.tr.now(), Key: key})
	return r
}

// searchEval wraps the search's caching evaluator to time the committed
// Evaluate calls (the main goroutine) and the speculative Lookahead calls
// (the prefetch workers) separately.
type searchEval struct {
	cache  *serving.CachingEvaluator
	tr     *tracer
	trace  uint64
	parent uint64
}

func (e *searchEval) Spec() serving.PoolSpec { return e.cache.Spec() }

func (e *searchEval) Evaluate(cfg serving.Config) serving.Result {
	s := e.tr.now()
	r := e.cache.Evaluate(cfg)
	e.tr.record(span{Trace: e.trace, Parent: e.parent, Name: "core.commit", Start: s, End: e.tr.now(), Key: cfg.Key()})
	return r
}

func (e *searchEval) Lookahead(cfg serving.Config) {
	s := e.tr.now()
	e.cache.Lookahead(cfg)
	e.tr.record(span{Trace: e.trace, Parent: e.parent, Name: "core.prefetch", Start: s, End: e.tr.now(), Async: true, Key: cfg.Key()})
}

// searchOut is one search's outcome.
type searchOut struct {
	found         bool
	cost          float64
	samplesToBest int
	timeToBest    time.Duration
	digest        uint64
	committed     map[string]bool
	trace         uint64 // span trace ID when traced
}

// runSearch runs one cold RIBBON search in the default (auto) mode.
func runSearch(m planModel, deploy bool, parallelism int, tr *tracer) searchOut {
	inner := &simEval{ev: m.eval, deploy: deploy, tr: tr}
	cache := serving.NewCachingEvaluator(inner)
	var ev serving.Evaluator = cache
	var root span
	if tr != nil {
		root = span{Trace: tr.newID(), ID: tr.newID(), Name: "core.search", Key: m.name}
		inner.trace = root.Trace
		ev = &searchEval{cache: cache, tr: tr, trace: root.Trace, parent: root.ID}
		root.Start = tr.now()
	}
	var stepAt []time.Time
	start := time.Now()
	opts := core.Options{Parallelism: parallelism, Progress: func(core.Step) { stepAt = append(stepAt, time.Now()) }}
	sr := core.NewSearcher(ev, m.bounds, m.seed, opts).Run(planBudget)
	if tr != nil {
		root.End = tr.now()
		tr.record(root)
	}
	out := searchOut{found: sr.Found, digest: trajectoryDigest(sr), committed: map[string]bool{}, trace: root.Trace}
	for _, st := range sr.Steps {
		out.committed[st.Config.Key()] = true
	}
	if sr.Found {
		out.cost = sr.BestResult.CostPerHour
		n, _ := sr.SamplesToReachCost(out.cost)
		out.samplesToBest = n
		if n >= 1 && n <= len(stepAt) {
			out.timeToBest = stepAt[n-1].Sub(start)
		}
	}
	return out
}

// trajectoryDigest hashes the committed trajectory: every step's
// configuration and the exact bits of what the search observed.
func trajectoryDigest(sr core.SearchResult) uint64 {
	h := fnv.New64a()
	for _, st := range sr.Steps {
		fmt.Fprintf(h, "%s|%x|%x|%x;", st.Config.Key(), math.Float64bits(st.Result.Rsat),
			math.Float64bits(st.Objective), math.Float64bits(st.Result.CostPerHour))
	}
	return h.Sum64()
}

// sweepOut is one five-model sweep.
type sweepOut struct {
	wall     time.Duration
	searches []searchOut
}

func runSweep(in *planInput, deploy bool, parallelism int, tr *tracer) sweepOut {
	start := time.Now()
	var out sweepOut
	for _, m := range in.models {
		out.searches = append(out.searches, runSearch(m, deploy, parallelism, tr))
	}
	out.wall = time.Since(start)
	return out
}

// planLayers accumulates the per-layer view of the traced sweeps.
type planLayers struct {
	sweeps     int
	committed  int // distinct configurations the searches committed
	evalCalls  int
	evalBusy   time.Duration
	evalMs     []float64
	commitWait time.Duration
	coreSelf   time.Duration
	launched   int
	hits       int
	wasted     int
	boSelf     time.Duration
	stepSelfMs []float64
}

// absorb links one sweep's spans into trees and folds them into the layer
// totals. The simulator wrapper cannot see which caller it runs for, so a
// simulator span's parent is the earliest-starting commit or prefetch span
// of the same search and configuration whose interval contains it: the
// call that claimed the cache entry.
func (pl *planLayers) absorb(spans []span, committed map[uint64]map[string]bool) {
	pl.sweeps++
	byTrace := map[uint64][]int{}
	for i := range spans {
		byTrace[spans[i].Trace] = append(byTrace[spans[i].Trace], i)
	}
	for trace, idx := range byTrace {
		pl.committed += len(committed[trace])
		var root *span
		var outer, inner []*span
		for _, i := range idx {
			s := &spans[i]
			switch s.Name {
			case "core.search":
				root = s
			case "core.commit", "core.prefetch":
				outer = append(outer, s)
			default:
				inner = append(inner, s)
			}
		}
		for _, s := range inner {
			var best *span
			for _, o := range outer {
				if o.Key == s.Key && o.Start <= s.Start && o.End >= s.End && (best == nil || o.Start < best.Start) {
					best = o
				}
			}
			if best != nil {
				s.Parent, s.Async = best.ID, best.Async
			}
		}
		children := map[uint64][]span{}
		for _, s := range inner {
			children[s.Parent] = append(children[s.Parent], *s)
		}
		var commits []span
		for _, o := range outer {
			if o.Name == "core.commit" {
				commits = append(commits, *o)
				pl.commitWait += o.dur()
				pl.coreSelf += selfTime(*o, children[o.ID])
				continue
			}
			ran := false
			for _, c := range children[o.ID] {
				ran = ran || c.Name == "serving.evaluate"
			}
			if ran {
				pl.launched++
				if committed[trace][o.Key] {
					pl.hits++
				} else {
					pl.wasted++
				}
			}
		}
		for _, s := range inner {
			if s.Name == "serving.evaluate" {
				pl.evalCalls++
				pl.evalBusy += s.dur()
				pl.evalMs = append(pl.evalMs, float64(s.dur())/1e6)
			}
		}
		if root == nil {
			continue
		}
		pl.boSelf += selfTime(*root, commits)
		sortSpans(commits)
		prev := root.Start
		for _, c := range commits {
			pl.stepSelfMs = append(pl.stepSelfMs, float64(c.Start-prev)/1e6)
			prev = c.End
		}
	}
}

// report sets the per-layer metrics, per sweep where they are totals, and
// checks the linking: every simulator call served a committed configuration
// or a prefetch that was either used or wasted.
func (pl *planLayers) report(res *result) {
	res.check(pl.hits+pl.wasted == pl.launched, "prefetch: hits %d + wasted %d != launched %d", pl.hits, pl.wasted, pl.launched)
	res.check(pl.evalCalls == pl.committed+pl.wasted, "simulator calls %d != committed %d + wasted %d", pl.evalCalls, pl.committed, pl.wasted)
	n := float64(max(pl.sweeps, 1))
	res.set("core.committed", float64(pl.committed)/n)
	res.set("serving.evaluate.calls", float64(pl.evalCalls)/n)
	res.set("serving.evaluate.busy_s", pl.evalBusy.Seconds()/n)
	res.setTail("serving.evaluate.p50_ms", pct(pl.evalMs, 0.5))
	res.setTail("serving.evaluate.p99_ms", pct(pl.evalMs, 0.99))
	res.set("core.commit_wait_s", pl.commitWait.Seconds()/n)
	res.set("core.self_s", pl.coreSelf.Seconds()/n)
	res.set("core.prefetch.launched", float64(pl.launched)/n)
	res.set("core.prefetch.hits", float64(pl.hits)/n)
	res.set("core.prefetch.wasted", float64(pl.wasted)/n)
	ratio := 0.0
	if pl.launched > 0 {
		ratio = float64(pl.hits) / float64(pl.launched)
	}
	res.set("core.prefetch.hit_ratio", ratio)
	res.set("bo.self_s", pl.boSelf.Seconds()/n)
	res.setTail("bo.step_self.p50_ms", pct(pl.stepSelfMs, 0.5))
	res.setTail("bo.step_self.p99_ms", pct(pl.stepSelfMs, 0.99))
}

// planConfig sizes one plan pass.
type planConfig struct {
	seed    uint64
	inputs  int
	deploy  bool
	seconds float64
}

// planPass sweeps a fixed set of inputs, possibly in several bursts spread
// over a run, and reports once at the end.
type planPass struct {
	cfg    planConfig
	tr     *tracer
	home   bool
	inputs []planInput
	sweeps [][]sweepOut
	layers planLayers
	n      int
}

// newPlanPass sets up cfg.inputs sweep inputs and records the set-up
// metrics; home passes also report setup_s.
func newPlanPass(res *result, cfg planConfig, tr *tracer, home bool) (*planPass, error) {
	p := &planPass{cfg: cfg, tr: tr, home: home, inputs: make([]planInput, cfg.inputs), sweeps: make([][]sweepOut, cfg.inputs)}
	var setups, gens, bounds []float64
	for i := range p.inputs {
		in, err := setupPlan(stats.DeriveSeed(cfg.seed, "perfbench", "plan", strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		p.inputs[i] = in
		setups = append(setups, in.setup.Seconds())
		gens = append(gens, float64(in.generate)/1e6)
		bounds = append(bounds, in.discovery.Seconds())
	}
	if home {
		res.set("setup_s", median(setups))
	}
	res.set("workload.generate_ms", median(gens))
	res.set("core.bounds_s", median(bounds))
	return p, nil
}

// sweepFor sweeps the inputs round-robin, starting a sweep only while it is
// expected to end within seconds; the first burst sweeps every input once
// whatever the time.
func (p *planPass) sweepFor(seconds float64) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var last time.Duration
	for p.n < len(p.inputs) || time.Now().Add(last).Before(deadline) {
		i := p.n % len(p.inputs)
		sw := runSweep(&p.inputs[i], p.cfg.deploy, planParallelism, p.tr)
		p.sweeps[i] = append(p.sweeps[i], sw)
		last = sw.wall
		p.n++
		if p.tr != nil {
			committed := map[uint64]map[string]bool{}
			for _, s := range sw.searches {
				committed[s.trace] = s.committed
			}
			spans := p.tr.take()
			p.layers.absorb(spans, committed)
			p.tr.keep(spans)
		}
	}
}

// finish replays every input at parallelism 1 without the deploy window —
// each measured trajectory must match its replay bit for bit — and reports
// the plan metrics: per input the median sweep, then the mean over inputs.
// A reference pass reports its fastest sweep instead: it sweeps a few
// seconds beside other passes on a machine whose speed swings by half, a
// stall only ever adds time, and a regression slows every sweep.
// It returns the number of sweeps measured.
func (p *planPass) finish(res *result) int {
	typical := median
	if !p.home {
		typical = minimum
	}
	var searchS, ttbS, stb, cost []float64
	for i, in := range p.inputs {
		replay := runSweep(&in, false, 1, nil)
		var walls, ttbs []float64
		for k, sw := range p.sweeps[i] {
			walls = append(walls, sw.wall.Seconds())
			ttb := 0.0
			for j, s := range sw.searches {
				res.attempted++
				if !s.found {
					res.failed++
				}
				res.check(s.found, "plan input %d: %s found no QoS-meeting pool", i, in.models[j].name)
				res.check(s.digest == replay.searches[j].digest && s.cost == replay.searches[j].cost,
					"plan input %d sweep %d: %s trajectory differs from its parallelism-1 replay", i, k, in.models[j].name)
				ttb += s.timeToBest.Seconds()
			}
			ttbs = append(ttbs, ttb)
		}
		total, c := 0, 0.0
		for _, s := range replay.searches {
			total += s.samplesToBest
			c += s.cost
		}
		searchS = append(searchS, typical(walls))
		ttbS = append(ttbS, typical(ttbs))
		stb = append(stb, float64(total))
		cost = append(cost, c)
	}
	res.set("search_s", mean(searchS))
	res.set("time_to_best_s", mean(ttbS))
	res.set("samples_to_best", mean(stb))
	res.set("plan_cost_usd_hr", mean(cost))
	if p.tr != nil {
		p.layers.report(res)
	}
	return p.n
}

// runPlan is a plan pass in one burst of cfg.seconds.
func runPlan(res *result, cfg planConfig, tr *tracer, home bool) (int, error) {
	p, err := newPlanPass(res, cfg, tr, home)
	if err != nil {
		return 0, err
	}
	p.sweepFor(cfg.seconds)
	return p.finish(res), nil
}
