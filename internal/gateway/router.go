package gateway

import (
	"errors"
	"sync/atomic"
	"time"

	"ribbon/internal/dispatch"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// pool is an immutable snapshot of the live instance set. The router loads
// it with one atomic pointer read per request; reconfigurations install a
// new snapshot and retire the instances that fell out of it — the hot path
// never takes a lock. It is the dispatch.View the policy decides over.
type pool struct {
	// instances is in dispatch preference order: the spec's type order,
	// then instance age within a type.
	instances []*instance
	// policy is the configured dispatch policy built for this instance
	// order.
	policy dispatch.Policy
	// queued is the gateway's pool-wide queued count.
	queued *atomic.Int64
	// config is the instance-count vector this snapshot realizes.
	config serving.Config
}

func (p *pool) Instances() int   { return len(p.instances) }
func (p *pool) Busy(i int) bool  { return !p.instances[i].idle.Load() }
func (p *pool) Load(i int) int   { return p.instances[i].load() }
func (p *pool) TotalQueued() int { return int(p.queued.Load()) }

// route admits one request into the data plane: the dispatch policy assigns
// it to an idle instance, parks it in an instance's FIFO or the shared
// queue, or sheds it; a full queue rejects it. It is safe for arbitrary
// concurrent callers.
func (g *Gateway) route(r *request) Outcome {
	g.m.recordRequest(r.rank)
	out := g.place(r)
	switch out {
	case OutcomeShed:
		g.m.recordShed(r.rank)
	case OutcomeRejected:
		g.m.recordReject(r.rank)
	}
	return out
}

// place puts r where the policy decides on the live pool, rejecting it when
// the pool is empty or the chosen queue is full. It records no outcome:
// admissions and re-placements settle it differently.
func (g *Gateway) place(r *request) Outcome {
	p := g.pool.Load()
	if len(p.instances) == 0 {
		return OutcomeRejected
	}
	t0 := time.Now()
	// tierNames are the workload class names, indexed by rank.
	d := p.policy.Pick(workload.Criticality(tierNames[r.rank]), p, &r.rng)
	g.m.pickSeconds.Observe(time.Since(t0).Seconds())
	switch d.Action {
	case dispatch.ActShed:
		return OutcomeShed
	case dispatch.ActEnqueueShared:
		if g.enqueueShared(r, d.Rank) {
			return OutcomeQueued
		}
	default:
		inst := p.instances[d.Instance]
		if d.Action == dispatch.ActAssign {
			// Claim the idle instance so the next arrival sees it busy
			// before its worker wakes.
			inst.idle.Store(false)
		}
		if g.enqueue(inst, r) {
			return OutcomeQueued
		}
	}
	return OutcomeRejected
}

// enqueue places r on inst's own FIFO, reporting false when it is full.
// After a successful send it re-checks the retire barrier: if the worker
// already passed its final drain, this goroutine rescues the request (and
// anything else stranded) back through the router — see retireDrain for why
// the two-sided check is race-free.
func (g *Gateway) enqueue(inst *instance, r *request) bool {
	// The queue span opens before the channel send: once r is on the queue a
	// worker may own it, so its fields cannot be written afterwards.
	if r.sampled {
		r.tAdmitted = g.nowMs()
	}
	inst.depth.Add(1)
	g.totalQueued.Add(1)
	select {
	case inst.queue <- r:
	default:
		g.took(inst) // undo: queue full
		return false
	}
	if inst.exited.Load() {
		g.rescue(inst)
	}
	return true
}

// enqueueShared parks r in the pool-wide queue at rank, reporting false
// when that rank is full, then wakes an idle instance to take the queue's
// head. Workers block on their own FIFO only and poll the shared queue
// between requests, so the handoff closes the race with a two-sided check:
// the enqueuer publishes sharedLen before it scans for an idle instance, a
// worker publishes idle before it polls. Either the scan sees the worker
// idle, or the worker's poll sees the request.
func (g *Gateway) enqueueShared(r *request, rank int) bool {
	if r.sampled {
		r.tAdmitted = g.nowMs()
	}
	g.totalQueued.Add(1)
	select {
	case g.shared[rank] <- r:
	default:
		g.totalQueued.Add(-1)
		return false
	}
	g.sharedLen.Add(1)
	g.wakeIdle()
	return true
}

// wakeIdle claims the first idle live instance in preference order and
// wakes it with a nil request on its FIFO; the worker then takes the shared
// queue's head itself, by rank. A claim on an instance whose worker already
// exited does not count: the scan goes on.
func (g *Gateway) wakeIdle() {
	if g.sharedLen.Load() <= 0 {
		return
	}
	for _, inst := range g.pool.Load().instances {
		if !inst.idle.Load() || !inst.idle.CompareAndSwap(true, false) {
			continue
		}
		select {
		case inst.queue <- nil:
		default: // a full FIFO wakes the worker anyway
		}
		if !inst.exited.Load() {
			return
		}
	}
}

// takeShared pops the highest-rank queued request from the shared queue
// without blocking, nil when it is empty.
func (g *Gateway) takeShared() *request {
	if g.sharedLen.Load() <= 0 {
		return nil
	}
	for rank := dispatch.NumRanks - 1; rank >= 0; rank-- {
		select {
		case r := <-g.shared[rank]:
			g.sharedLen.Add(-1)
			g.totalQueued.Add(-1)
			return r
		default:
		}
	}
	return nil
}

// errRescueFailed reports a request displaced by a reconfiguration that
// could not be re-placed anywhere on the new pool.
var errRescueFailed = errors.New("gateway: request displaced by reconfiguration could not be re-placed")

// rescue drains a retired instance's FIFO and re-places every stranded
// request on the live pool. These requests were already admitted: one the
// policy would shed, or that finds no queue space, fails loudly rather than
// disappearing.
func (g *Gateway) rescue(inst *instance) {
	for {
		r := g.take(inst)
		if r == nil {
			return
		}
		if g.place(r) == OutcomeQueued {
			continue
		}
		g.m.failed.Inc()
		g.respond(r, Response{Err: errRescueFailed, TraceSeq: r.seq, TraceID: r.id})
	}
}
