package gateway

import (
	"math"
	"math/rand/v2"
	"sync/atomic"

	"ribbon/internal/cloud"
	"ribbon/internal/obs"
)

// request is one admitted inference request traveling through the data
// plane. Requests are pooled (sync.Pool) — the dispatch hot path allocates
// nothing per request.
type request struct {
	arrivalMs float64 // scheduled stream-time arrival (latency epoch)
	batch     int     // samples fused into this request
	rank      int     // criticality rank, [0, dispatch.NumRanks)
	payload   []byte  // request body; nil for payload-free floods
	wait      bool    // a waiter is blocked on done
	attempts  int     // backend-failure re-queues consumed so far
	done      chan Response
	// rng is the random source the dispatch policy draws from for this
	// request, seeded from the request at admission, so a placement does
	// not depend on which goroutine routes it.
	rng rand.PCG

	// Tracing. seq is the ingress ordinal (always assigned when tracing is
	// on); the span stamps are stream-time and only taken when sampled, so
	// unsampled requests skip the clock reads entirely.
	seq       uint64
	id        string // adopted X-Request-Id, "" otherwise
	sampled   bool
	tAdmit    float64 // admit span start (ingress)
	tAdmitted float64 // enqueued: admit ends, queue span starts
}

// response is the completion record delivered to a waiting caller.
type Response struct {
	// LatencyMs is stream time from scheduled arrival to completion;
	// ServiceMs the service time of the backend call that served it.
	LatencyMs float64
	ServiceMs float64
	// Instance names the serving instance type.
	Instance string
	// Body is the backend's answer (ProxyBackend only).
	Body []byte
	// Err is the backend failure, if any.
	Err error
	// TraceSeq is the request's ingress ordinal (0 when tracing is off) and
	// TraceID the adopted X-Request-Id, if one was supplied. Render a
	// user-facing ID with obs.TraceID(TraceSeq, TraceID).
	TraceSeq uint64
	TraceID  string
}

// instance is one live pool member: a bounded FIFO and a worker goroutine
// that serves it one request per backend call. The worker serves its own
// FIFO first, then the gateway's shared queue by rank — the order of
// dispatch.State.Next — and blocks on its own FIFO only. The queues are the
// only handoff: the router never blocks on an instance.
type instance struct {
	id   int
	slot int // index into the pool spec's type vector
	typ  cloud.InstanceType
	name string // typ.Name(), precomputed: completions must not allocate

	// queue is the instance's own FIFO: requests the policy assigned or
	// enqueued here, and nil wake-ups telling an idle worker to take the
	// shared queue's head.
	queue chan *request

	depth    atomic.Int64  // requests on queue, not yet taken by the worker
	idle     atomic.Bool   // worker waits with no work in hand
	inflight atomic.Int64  // taken, being served
	served   atomic.Uint64 // completed on this instance
	retiring atomic.Bool   // drain-then-retire initiated
	exited   atomic.Bool   // worker past its final drain barrier

	// Chaos straggler state (math.Float64bits): while stream time is before
	// slowUntilBits, every batch this instance serves stretches by
	// slowFactorBits. Zero factor means healthy; the worker reads both with
	// plain atomic loads, so injection never blocks serving.
	slowFactorBits atomic.Uint64
	slowUntilBits  atomic.Uint64

	warmupMs float64 // one-off boot charge before the worker serves

	stop chan struct{} // closed by applyConfig to retire
	done chan struct{} // closed by the worker on exit
}

func newInstance(id, slot int, typ cloud.InstanceType, queueDepth int, warmupMs float64) *instance {
	inst := &instance{
		id:       id,
		slot:     slot,
		typ:      typ,
		name:     typ.Name(),
		queue:    make(chan *request, queueDepth),
		warmupMs: warmupMs,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	// A warm instance takes work at once; a warming one is busy until its
	// worker finishes the boot charge.
	inst.idle.Store(warmupMs <= 0)
	return inst
}

// setSlowdown marks inst a straggler: batches stretch by factor until
// untilMs of stream time. A later event overwrites an earlier one.
func (inst *instance) setSlowdown(factor, untilMs float64) {
	inst.slowUntilBits.Store(math.Float64bits(untilMs))
	inst.slowFactorBits.Store(math.Float64bits(factor))
}

// slowdown returns the active stretch factor at nowMs, 1 when healthy or
// the window has lapsed.
func (inst *instance) slowdown(nowMs float64) float64 {
	f := math.Float64frombits(inst.slowFactorBits.Load())
	if f <= 1 {
		return 1
	}
	if nowMs >= math.Float64frombits(inst.slowUntilBits.Load()) {
		return 1
	}
	return f
}

// load is the instance's backlog as dispatch.View defines it: its own
// queued requests plus one while it has work in hand.
func (inst *instance) load() int {
	l := int(inst.depth.Load())
	if !inst.idle.Load() {
		l++
	}
	return l
}

// took settles the queue counters after a request leaves inst's FIFO, by
// any path (worker take, blocking receive, router rescue).
func (g *Gateway) took(inst *instance) {
	inst.depth.Add(-1)
	g.totalQueued.Add(-1)
}

// take pops inst's oldest queued request without blocking, skipping
// wake-ups; nil when the FIFO is empty.
func (g *Gateway) take(inst *instance) *request {
	for {
		select {
		case r := <-inst.queue:
			if r == nil {
				continue
			}
			g.took(inst)
			return r
		default:
			return nil
		}
	}
}

// next is dispatch.State.Next on the live plane: inst's own FIFO first,
// then the shared queue by rank. Before it polls the shared queue the
// worker publishes that it is idle, so an enqueuer that misses it in the
// poll sees it in its scan (see enqueueShared). A retiring worker drains
// its own FIFO only: the shared queue belongs to the live pool.
func (g *Gateway) next(inst *instance) *request {
	if r := g.take(inst); r != nil || inst.retiring.Load() {
		return r
	}
	inst.idle.Store(true)
	return g.takeShared()
}

// worker is the instance's serving loop: take the next request, serve it
// as one backend call, record the completion, repeat. On retire it drains
// every request on its own FIFO before exiting — admitted work is never
// dropped by a reconfiguration.
func (g *Gateway) worker(inst *instance) {
	defer close(inst.done)

	// One reusable Batch per worker: it crosses the Backend interface by
	// pointer, so a stack-local would escape and cost an allocation per
	// served request.
	b := new(Batch)

	if inst.warmupMs > 0 {
		if err := sleepFor(g.ctx, g.scaled(inst.warmupMs), g.timeScale); err != nil {
			g.failDrain(inst)
			return
		}
	}

	for {
		r := g.next(inst)
		if r == nil {
			select {
			case <-g.ctx.Done():
				g.failDrain(inst)
				return
			case <-inst.stop:
				g.retireDrain(inst, b)
				return
			case r = <-inst.queue:
				if r == nil {
					continue // woken to take the shared queue's head
				}
				g.took(inst)
			}
		}
		inst.idle.Store(false)
		g.serve(inst, r, b)
	}
}

// serve executes one request as one backend call, as the simulator serves
// one query at a time, and records its completion. b is the worker's
// reusable Batch: nothing escapes on the payload-free path.
func (g *Gateway) serve(inst *instance, r *request, b *Batch) {
	*b = Batch{Requests: 1, Samples: r.batch}
	if r.payload != nil {
		b.Payloads = [][]byte{r.payload}
	}

	// backendStart closes the queue span and opens the backend span of a
	// traced request.
	backendStart := 0.0
	if r.sampled {
		backendStart = g.nowMs()
	}
	inst.inflight.Add(1)
	svcMs, err := g.backend.Serve(g.ctx, inst.typ, b)
	// A chaos slowdown stretches this instance's service time: sleep out
	// the extra stream time so stragglers degrade real measured latency,
	// the same signal the SLO engine and controller react to.
	if f := inst.slowdown(g.nowMs()); f > 1 && err == nil && svcMs > 0 {
		if sleepFor(g.ctx, g.scaled(svcMs*(f-1)), g.timeScale) == nil {
			svcMs *= f
		}
	}
	inst.inflight.Add(-1)
	now := g.nowMs()

	reqErr := err
	if reqErr == nil && b.Errs != nil {
		reqErr = b.Errs[0]
	}
	if reqErr != nil {
		g.failRequest(r, inst, reqErr, err == nil, backendStart, now)
		return
	}
	lat := now - r.arrivalMs
	g.m.completeOK(r.rank, lat, lat <= g.qosMs)
	inst.served.Add(1)
	var body []byte
	if b.Bodies != nil {
		body = b.Bodies[0]
	}
	if r.sampled {
		g.recordServeTrace(r, inst, backendStart, now, lat, "served")
	}
	g.respond(r, Response{
		LatencyMs: lat,
		ServiceMs: svcMs,
		Instance:  inst.name,
		Body:      body,
		TraceSeq:  r.seq,
		TraceID:   r.id,
	})
}

// requeueLimit caps how many times one request may be re-placed after a
// per-request backend failure before it fails loudly.
const requeueLimit = 2

// failRequest settles one request whose backend call errored. Per-request
// failures (reported through Batch.Errs) get tiered second chances:
// Critical and Standard requests re-queue onto the live pool (bounded by
// requeueLimit), Sheddable ones are shed — explicit outcomes either way, a
// failed request never just vanishes. Call-level failures (the error Serve
// returns, typically shutdown) fail immediately: retrying against a
// cancelled context only spins.
func (g *Gateway) failRequest(r *request, inst *instance, reqErr error, perRequest bool, backendStart, now float64) {
	if perRequest && g.ctx.Err() == nil {
		if r.rank > 0 && r.attempts < requeueLimit {
			r.attempts++
			g.m.requeued.Inc()
			if g.place(r) == OutcomeQueued {
				return
			}
			// No queue anywhere: fall through to a loud failure.
		} else if r.rank == 0 {
			g.m.recordShed(r.rank)
			if r.sampled {
				g.recordServeTrace(r, inst, backendStart, now, 0, "shed")
			}
			g.respond(r, Response{Err: reqErr, Instance: inst.name, TraceSeq: r.seq, TraceID: r.id})
			return
		}
	}
	g.m.failed.Inc()
	if r.sampled {
		g.recordServeTrace(r, inst, backendStart, now, 0, "failed")
	}
	g.respond(r, Response{Err: reqErr, Instance: inst.name, TraceSeq: r.seq, TraceID: r.id})
}

// recordServeTrace copies a completed request's timeline into the trace
// ring. Called before respond — after respond the pooled request may be
// reused by a concurrent admit.
func (g *Gateway) recordServeTrace(r *request, inst *instance, backendStart, backendEnd, latMs float64, outcome string) {
	end := g.nowMs()
	g.traces.Record(func(t *obs.Trace) {
		t.Seq = r.seq
		t.ID = r.id
		t.Class = tierNames[r.rank]
		t.Outcome = outcome
		t.Instance = inst.name
		t.ArrivalMs = r.arrivalMs
		t.LatencyMs = latMs
		t.Spans = append(t.Spans,
			obs.Span{Name: "admit", StartMs: r.tAdmit, EndMs: r.tAdmitted},
			obs.Span{Name: "queue", StartMs: r.tAdmitted, EndMs: backendStart},
			obs.Span{Name: "backend", StartMs: backendStart, EndMs: backendEnd},
			obs.Span{Name: "respond", StartMs: backendEnd, EndMs: end},
		)
	})
}

// retireDrain is the worker side of drain-then-retire. Ordering matters: the
// exited store happens before the drain loop, and the router checks exited
// after its enqueue — so either the router's send is observed by this drain,
// or the router sees exited and rescues the request itself. Either way no
// admitted request is stranded on a retired instance. A wake-up this drain
// swallowed is passed on to a live idle instance.
func (g *Gateway) retireDrain(inst *instance, b *Batch) {
	inst.idle.Store(false)
	inst.exited.Store(true)
	for r := g.take(inst); r != nil; r = g.take(inst) {
		g.serve(inst, r, b)
	}
	g.wakeIdle()
	g.m.recordRetire(g.nowMs(), "instance_retired", inst)
}

// failDrain fails out everything still queued on inst's FIFO when the
// gateway itself shuts down (context cancelled): respond with the context
// error, serve nothing. Close fails what the shared queue still holds.
func (g *Gateway) failDrain(inst *instance) {
	inst.idle.Store(false)
	inst.exited.Store(true)
	err := g.ctx.Err()
	for {
		r := g.take(inst)
		if r == nil {
			return
		}
		g.m.failed.Inc()
		g.respond(r, Response{Err: err, Instance: inst.name, TraceSeq: r.seq, TraceID: r.id})
	}
}
