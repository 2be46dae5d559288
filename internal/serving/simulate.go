package serving

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ribbon/internal/chaos"
	"ribbon/internal/cloud"
	"ribbon/internal/dispatch"
	"ribbon/internal/perf"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

// ClassStat is the per-criticality-class slice of a Result, populated when
// the evaluation stream carries explicit service classes.
type ClassStat struct {
	// Class is the criticality tier.
	Class workload.Criticality
	// Queries is the number of measured queries of this class.
	Queries int
	// Rsat is the class's QoS satisfaction rate (shed queries count as
	// violations).
	Rsat float64
	// Shed is the number of measured queries of this class dropped by the
	// dispatch policy.
	Shed int
}

// Result summarizes one configuration evaluation: the paper's per-sample
// observation (Rsat, cost) plus diagnostic latency statistics.
type Result struct {
	// Config is the evaluated instance-count vector.
	Config Config
	// CostPerHour is the pool price in $/hour.
	CostPerHour float64
	// Rsat is the QoS satisfaction rate: the fraction of measured queries
	// whose latency met the model's target.
	Rsat float64
	// MeetsQoS reports Rsat >= the spec's QoS percentile.
	MeetsQoS bool
	// MeanLatencyMs and TailLatencyMs (at the spec's percentile)
	// characterize the latency distribution.
	MeanLatencyMs float64
	TailLatencyMs float64
	// MaxQueueLen is the high-water mark of the total queued backlog
	// (shared plus per-instance queues).
	MaxQueueLen int
	// Queries is the number of measured (post-warmup) queries.
	Queries int
	// Aborted reports that the evaluation hit the AbortQueueLength limit
	// and refused later arrivals (early termination, Sec. 5.5).
	Aborted bool
	// Policy names the dispatch policy the pool ran under.
	Policy string
	// Shed is the number of measured queries the dispatch policy dropped;
	// ShedRate is Shed / Queries. Shed queries count as QoS violations.
	Shed     int
	ShedRate float64
	// Lost is the number of measured queries lost to capacity churn — work
	// in flight or queued on an instance when it was revoked or failed.
	// Lost queries count as QoS violations. Always 0 without churn; the
	// live gateway drains such work instead, so this is the simulator
	// being conservative about a hostile cloud.
	Lost int
	// Classes breaks the measurement down per criticality tier, in
	// priority order; nil when the stream carries no class annotations.
	Classes []ClassStat
}

// ViolationRate returns 1 - Rsat.
func (r Result) ViolationRate() float64 { return 1 - r.Rsat }

// ClassStat returns the stats for one criticality tier, if present.
func (r Result) ClassStat(c workload.Criticality) (ClassStat, bool) {
	for _, cs := range r.Classes {
		if cs.Class == c.Normalize() {
			return cs, true
		}
	}
	return ClassStat{}, false
}

// Evaluator measures configurations. Implementations must be deterministic
// for a fixed configuration so results are reproducible and cacheable.
type Evaluator interface {
	// Evaluate deploys cfg and serves the evaluation stream through it.
	Evaluate(cfg Config) Result
	// Spec returns the pool being searched.
	Spec() PoolSpec
}

// SimOptions configures the discrete-event evaluation.
type SimOptions struct {
	// Queries is the stream length per evaluation; 4000 when zero.
	Queries int
	// WarmupFraction of leading queries is excluded from Rsat; 0.1 when
	// zero (negative disables warmup exclusion).
	WarmupFraction float64
	// Seed selects the deterministic workload and noise streams.
	Seed uint64
	// RateScale multiplies the model's default arrival rate; 1 when zero.
	RateScale float64
	// Batch selects the batch-size distribution family.
	Batch workload.BatchKind
	// AbortQueueLength terminates a drowning evaluation early: once the
	// total queued backlog exceeds this length, later arrivals are refused
	// and counted as violations instead of waiting out an unbounded
	// backlog — the paper's queue-monitoring mitigation for violation
	// spikes during exploration (Sec. 5.5). Zero disables early
	// termination.
	AbortQueueLength int
	// Dispatch selects the routing policy; the zero value is the paper's
	// preference-order FCFS rule, which reproduces the pre-subsystem
	// simulator bit-for-bit.
	Dispatch dispatch.Spec
	// Mix assigns criticality classes to the generated stream; the zero
	// value keeps the legacy unannotated all-Standard stream. Ignored by
	// NewTraceEvaluator (the trace carries its own classes).
	Mix workload.ClassMix
	// Observer, when non-nil, receives per-decision routing telemetry
	// from every evaluation (see dispatch.Instrument). Purely passive:
	// results are bit-identical with or without it.
	Observer dispatch.Observer
	// Churn, when non-empty, replays a capacity-event schedule against the
	// deployment: revoked/failed instances stop taking work at their
	// notice time, in-flight work that outlives the warning window is
	// lost, stragglers serve slower inside their window, and restored
	// capacity rejoins after ChurnWarmupMs. The no-churn path is
	// byte-identical to an evaluator without this field.
	Churn *chaos.Schedule
	// ChurnWarmupMs is the boot charge restored capacity pays before it
	// serves again (KindRestore events); 0 restores instantly.
	ChurnWarmupMs float64
}

func (o SimOptions) withDefaults() SimOptions {
	if o.Queries == 0 {
		o.Queries = 4000
	}
	if o.Queries < 0 {
		panic("serving: negative query count")
	}
	if o.WarmupFraction == 0 {
		o.WarmupFraction = 0.1
	}
	if o.WarmupFraction < 0 {
		o.WarmupFraction = 0
	}
	if o.RateScale == 0 {
		o.RateScale = 1
	}
	if err := o.Dispatch.Validate(); err != nil {
		panic("serving: " + err.Error())
	}
	if o.Churn != nil {
		if err := o.Churn.Validate(); err != nil {
			panic("serving: " + err.Error())
		}
	}
	return o
}

// SimEvaluator evaluates configurations by discrete-event simulation of the
// serving pool under a dispatch policy (internal/dispatch; the paper's
// preference-order FCFS rule by default). The same workload stream (common
// random numbers) is served through every configuration, which sharpens
// comparisons between configurations exactly as serving the same production
// trace would.
type SimEvaluator struct {
	spec   PoolSpec
	opts   SimOptions
	stream *workload.Stream
	// hasClasses caches stream.HasClasses(): the stream is fixed per
	// evaluator and Evaluate runs hundreds of times per search.
	hasClasses bool
	// order is the arrival-time replay order of the stream (stable-sorted
	// by ArrivalMs); nil when the stream is already sorted, which Generate
	// guarantees. It reproduces the event-heap ordering of the old
	// schedule-everything-up-front simulator for unsorted traces.
	order []int32
	// service[t][b] is perf.ServiceMs of pool type t at batch size b, for
	// b up to the stream's largest batch. The noise-free latency depends
	// only on (type, batch), so Evaluate reads it here instead of
	// recomputing it for every query of every run.
	service [][]float64
	// scratch pools per-evaluation buffers (latencies, shed flags,
	// deployed types and their service rows, dispatch state, completion
	// heap). Evaluate runs hundreds of times per search — and concurrently
	// under batched parallel search — so the arena is a sync.Pool rather
	// than plain fields.
	scratch sync.Pool
}

// evalScratch is the reusable per-evaluation buffer arena.
type evalScratch struct {
	latencies []float64
	shed      []bool
	types     []cloud.InstanceType
	// rows[i] is the service-table row of deployed instance i's type.
	rows  [][]float64
	state *dispatch.State
	heap  completionHeap
}

// arrivalOrder returns the stable arrival-time ordering of the queries, or
// nil when they are already sorted (the common case).
func arrivalOrder(qs []workload.Query) []int32 {
	sorted := true
	for i := 1; i < len(qs); i++ {
		if qs[i].ArrivalMs < qs[i-1].ArrivalMs {
			sorted = false
			break
		}
	}
	if sorted {
		return nil
	}
	ord := make([]int32, len(qs))
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.SliceStable(ord, func(a, b int) bool {
		return qs[ord[a]].ArrivalMs < qs[ord[b]].ArrivalMs
	})
	return ord
}

// serviceTable returns the [pool type][batch] table of noise-free service
// times for batch sizes up to the largest in qs. It panics on a batch
// below 1, which has no service time.
func serviceTable(spec PoolSpec, qs []workload.Query) [][]float64 {
	maxBatch := 0
	for i, q := range qs {
		if q.Batch < 1 {
			panic(fmt.Sprintf("serving: query %d has batch %d; batches must be >= 1", i, q.Batch))
		}
		maxBatch = max(maxBatch, q.Batch)
	}
	table := make([][]float64, len(spec.Types))
	for t, typ := range spec.Types {
		table[t] = make([]float64, maxBatch+1)
		for b := 1; b <= maxBatch; b++ {
			table[t][b] = perf.ServiceMs(spec.Model, typ, b)
		}
	}
	return table
}

func newSimEvaluator(spec PoolSpec, opts SimOptions, st *workload.Stream) *SimEvaluator {
	return &SimEvaluator{spec: spec, opts: opts, stream: st,
		hasClasses: st.HasClasses(), order: arrivalOrder(st.Queries),
		service: serviceTable(spec, st.Queries)}
}

// NewSimEvaluator builds an evaluator for the pool with the given options.
func NewSimEvaluator(spec PoolSpec, opts SimOptions) *SimEvaluator {
	opts = opts.withDefaults()
	st := workload.Generate(spec.Model, workload.Options{
		Queries:   opts.Queries,
		Seed:      opts.Seed,
		RateScale: opts.RateScale,
		Batch:     opts.Batch,
		Mix:       opts.Mix,
	})
	return newSimEvaluator(spec, opts, st)
}

// NewTraceEvaluator builds an evaluator that replays a fixed query stream
// instead of generating one; used by trace-driven experiments and tools.
// It panics on an empty trace and on a query with a batch below 1. Its
// service-time table grows with the trace's largest batch.
func NewTraceEvaluator(spec PoolSpec, opts SimOptions, stream *workload.Stream) *SimEvaluator {
	opts = opts.withDefaults()
	if len(stream.Queries) == 0 {
		panic("serving: empty trace")
	}
	return newSimEvaluator(spec, opts, stream)
}

// Spec returns the pool spec.
func (e *SimEvaluator) Spec() PoolSpec { return e.spec }

// Stream exposes the evaluation stream (read-only by convention).
func (e *SimEvaluator) Stream() *workload.Stream { return e.stream }

// deploymentKey canonicalizes a configuration as its nonzero
// family=count pairs in pool order.
func deploymentKey(spec PoolSpec, cfg Config) string {
	var b []byte
	for i, t := range spec.Types {
		if cfg[i] == 0 {
			continue
		}
		b = append(b, t.Family...)
		b = append(b, '=')
		b = appendInt(b, cfg[i])
		b = append(b, ',')
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// getScratch leases the per-evaluation buffer arena, sized (and zeroed) for
// the stream length n and the deployed instance count.
func (e *SimEvaluator) getScratch(n int) *evalScratch {
	sc, _ := e.scratch.Get().(*evalScratch)
	if sc == nil {
		sc = &evalScratch{state: dispatch.NewState(nil)}
	}
	if cap(sc.latencies) < n {
		sc.latencies = make([]float64, n)
		sc.shed = make([]bool, n)
	}
	sc.latencies = sc.latencies[:n]
	sc.shed = sc.shed[:n]
	for i := range sc.latencies {
		sc.latencies[i] = 0
		sc.shed[i] = false
	}
	sc.types = sc.types[:0]
	sc.rows = sc.rows[:0]
	sc.heap.Reset()
	return sc
}

// Evaluate serves the evaluation stream through cfg and measures per-query
// latency against the model's QoS target.
//
// Every arrival is routed by the configured dispatch policy: it is assigned
// to an idle instance, parked in the shared queue or an instance's own
// queue, or shed. When an instance finishes it takes its next query with
// dispatch.State.Next: its own queue first, then the shared queue by rank. The default policy is the paper's rule (Sec. 5.1): first
// idle instance in pool type order, one shared FIFO queue drained by
// whichever instance finishes first.
//
// The event loop merges a cursor over the pre-sorted arrivals against a
// typed completions-only heap instead of heap-pushing all N arrivals as
// closures up front. The ordering contract is exactly the old engine's:
// same-time arrivals replay in stream order, same-time completions in
// scheduling order, and an arrival always precedes a completion at the same
// instant (arrivals were scheduled first). Evaluate is safe for concurrent
// use — the batched parallel search relies on it.
func (e *SimEvaluator) Evaluate(cfg Config) Result {
	spec := e.spec
	if len(cfg) != len(spec.Types) {
		panic(fmt.Sprintf("serving: config %v does not match pool of %d types", cfg, len(spec.Types)))
	}
	res := Result{Config: cfg.Clone(), CostPerHour: spec.Cost(cfg), Policy: e.opts.Dispatch.Name()}
	if cfg.Total() == 0 {
		// Nothing can serve: every query violates.
		res.Rsat = 0
		res.MeanLatencyMs = math.Inf(1)
		res.TailLatencyMs = math.Inf(1)
		res.Queries = len(e.stream.Queries)
		return res
	}

	queries := e.stream.Queries
	sc := e.getScratch(len(queries))
	defer e.scratch.Put(sc)

	for i, t := range spec.Types {
		for k := 0; k < cfg[i]; k++ {
			sc.types = append(sc.types, t)
			sc.rows = append(sc.rows, e.service[i])
		}
	}
	types, rows := sc.types, sc.rows

	// The noise stream is keyed by the deployed (family, count) multiset,
	// not the raw config vector, so a configuration evaluates identically
	// whether its pool declares extra all-zero types or not — subspace
	// experiments (Fig. 8) stay consistent across pool cardinalities. The
	// policy's own random stream is derived separately so stochastic
	// policies never perturb the service-time noise.
	key := deploymentKey(spec, cfg)
	noise := stats.Derive(e.opts.Seed, "serving", "noise", spec.Model.Name, key)
	name := e.opts.Dispatch.Name()
	pol := dispatch.Instrument(e.opts.Dispatch.MustNew(types), name, e.opts.Observer)
	rng := stats.Derive(e.opts.Seed, "dispatch", name, spec.Model.Name, key)
	pool := sc.state
	pool.Reset(types)

	latencies := sc.latencies
	shed := sc.shed
	heap := &sc.heap
	maxQueue := 0
	now := 0.0

	// Capacity-churn state, compiled per evaluation. The churn path is not
	// allocation-free; the plain path below is untouched and stays
	// byte-identical to an evaluator without a schedule.
	var plan *churnPlan
	var retired []bool
	var inflightIdx []int32
	var completesAt []float64
	var lostFlag []bool
	ce := 0
	if !e.opts.Churn.Empty() {
		plan = compileChurn(e.opts.Churn, types, e.opts.ChurnWarmupMs)
		retired = make([]bool, len(types))
		inflightIdx = make([]int32, len(types))
		completesAt = make([]float64, len(types))
		lostFlag = make([]bool, len(queries))
		for i := range inflightIdx {
			inflightIdx[i] = -1
		}
	}

	assign := func(inst, idx int) {
		pool.SetBusy(inst, true)
		// Exactly perf.NoisyServiceMs: the tabled ServiceMs times one noise
		// draw.
		svc := rows[inst][queries[idx].Batch] * perf.Noise(noise)
		if plan != nil {
			if f := plan.slowFactor[inst]; f != 0 && now >= plan.slowFrom[inst] && now < plan.slowTo[inst] {
				svc *= f
			}
			inflightIdx[inst] = int32(idx)
			completesAt[inst] = now + svc
		}
		heap.Push(now+svc, int32(inst), int32(idx))
	}

	// applyTrans replays one churn transition. A death shields the instance
	// from dispatch (busy forever) and writes off in-flight work that
	// cannot drain before the kill time; a revival puts restored capacity
	// back in rotation and immediately offers it queued work.
	applyTrans := func(tr churnTrans) {
		i := int(tr.inst)
		if now < tr.t {
			now = tr.t
		}
		if tr.revive {
			retired[i] = false
			plan.killAt[i] = math.Inf(1)
			if inflightIdx[i] >= 0 {
				// Revived mid-drain: the in-flight completion frees it.
				return
			}
			pool.SetBusy(i, false)
			if next, ok := pool.Next(i); ok {
				assign(i, next)
			}
			return
		}
		retired[i] = true
		if inflightIdx[i] >= 0 && completesAt[i] > plan.killAt[i] {
			// The in-flight query cannot finish inside the warning window
			// (or the failure was immediate): lost at kill time.
			idx := int(inflightIdx[i])
			latencies[idx] = math.Inf(1)
			lostFlag[idx] = true
			inflightIdx[i] = -1
		}
		if !pool.Busy(i) {
			pool.SetBusy(i, true)
		}
	}

	aborted := false
	arr := 0
	for {
		if plan != nil {
			// Apply every churn transition due before the next arrival or
			// completion; a revival may schedule an earlier completion, so
			// the bound is re-tightened as we go.
			nextT := math.Inf(1)
			if arr < len(queries) {
				idx := arr
				if e.order != nil {
					idx = int(e.order[arr])
				}
				nextT = queries[idx].ArrivalMs
			}
			if heap.Len() > 0 && heap.MinTime() < nextT {
				nextT = heap.MinTime()
			}
			for ce < len(plan.trans) && plan.trans[ce].t <= nextT {
				applyTrans(plan.trans[ce])
				ce++
				if heap.Len() > 0 && heap.MinTime() < nextT {
					nextT = heap.MinTime()
				}
			}
		}
		if arr >= len(queries) && heap.Len() == 0 {
			break
		}
		if arr < len(queries) {
			idx := arr
			if e.order != nil {
				idx = int(e.order[arr])
			}
			// Ties go to the arrival: in the old engine all arrivals
			// were scheduled before any completion, so their seq always
			// compared lower.
			if at := queries[idx].ArrivalMs; heap.Len() == 0 || at <= heap.MinTime() {
				arr++
				now = at
				d := pol.Pick(queries[idx].Class, pool, rng)
				switch d.Action {
				case dispatch.ActAssign:
					if pool.Busy(d.Instance) {
						panic(fmt.Sprintf("serving: policy %q assigned busy instance %d", name, d.Instance))
					}
					assign(d.Instance, idx)
				case dispatch.ActShed:
					// Load shedding: the policy dropped the query; it
					// counts as a violation and in the shed rate.
					shed[idx] = true
					latencies[idx] = math.Inf(1)
				case dispatch.ActEnqueueShared, dispatch.ActEnqueueInstance:
					if e.opts.AbortQueueLength > 0 && pool.TotalQueued() >= e.opts.AbortQueueLength {
						// Early termination: the configuration is
						// drowning; refuse the query and count it as
						// a violation.
						aborted = true
						latencies[idx] = math.Inf(1)
						continue
					}
					if d.Action == dispatch.ActEnqueueShared {
						pool.PushShared(idx, d.Rank)
					} else {
						pool.PushInstance(d.Instance, idx)
					}
					if l := pool.TotalQueued(); l > maxQueue {
						maxQueue = l
					}
				default:
					panic(fmt.Sprintf("serving: policy %q returned unknown action %d", name, d.Action))
				}
				continue
			}
		}
		c := heap.Pop()
		inst, idx := int(c.Inst), int(c.Idx)
		if plan != nil {
			if inflightIdx[inst] != c.Idx {
				// Stale completion of work already written off when its
				// instance died.
				continue
			}
			inflightIdx[inst] = -1
			if retired[inst] {
				// Graceful drain: the query finished inside the warning
				// window, but the instance stays dead.
				now = c.Time
				latencies[idx] = now - queries[idx].ArrivalMs
				continue
			}
		}
		now = c.Time
		latencies[idx] = now - queries[idx].ArrivalMs
		pool.SetBusy(inst, false)
		if next, ok := pool.Next(inst); ok {
			assign(inst, next)
		}
	}
	res.Aborted = aborted
	if plan != nil {
		// Work stranded on dead instances (their own queues, or the shared
		// queue once everything died) never completes; charge it as lost.
		for i := range latencies {
			if latencies[i] == 0 && !shed[i] {
				latencies[i] = math.Inf(1)
				lostFlag[i] = true
			}
		}
	}

	warm := int(float64(len(latencies)) * e.opts.WarmupFraction)
	measured := latencies[warm:]
	res.Queries = len(measured)
	res.Rsat = stats.FractionBelow(measured, spec.Model.QoSLatencyMs)
	res.MeetsQoS = res.Rsat >= spec.QoSPercentile
	res.MeanLatencyMs = stats.MeanOf(measured)
	res.MaxQueueLen = maxQueue
	for i := warm; i < len(latencies); i++ {
		if shed[i] {
			res.Shed++
		}
	}
	if plan != nil {
		for i := warm; i < len(latencies); i++ {
			if lostFlag[i] {
				res.Lost++
			}
		}
	}
	if res.Queries > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Queries)
	}
	if e.hasClasses {
		res.Classes = classStats(queries[warm:], measured, shed[warm:], spec.Model.QoSLatencyMs)
	}
	// Last: the selection reorders the measured latencies in place.
	res.TailLatencyMs = stats.PercentileInPlace(measured, spec.QoSPercentile)
	return res
}

// classStats slices the measured window per criticality tier, in priority
// order (highest first). Tiers absent from the stream are omitted.
func classStats(queries []workload.Query, latencies []float64, shed []bool, qosMs float64) []ClassStat {
	perClass := make([]ClassStat, len(workload.Classes()))
	met := make([]int, len(perClass))
	for i, c := range workload.Classes() {
		perClass[i].Class = c
	}
	for i, q := range queries {
		// Classes() is priority-ordered with Rank 2,1,0; index by rank.
		k := len(perClass) - 1 - q.Class.Rank()
		perClass[k].Queries++
		if latencies[i] <= qosMs {
			met[k]++
		}
		if shed[i] {
			perClass[k].Shed++
		}
	}
	out := perClass[:0]
	for i := range perClass {
		if perClass[i].Queries == 0 {
			continue
		}
		perClass[i].Rsat = float64(met[i]) / float64(perClass[i].Queries)
		out = append(out, perClass[i])
	}
	return out
}
