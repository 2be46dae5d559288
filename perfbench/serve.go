package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ribbon/internal/chaos"
	"ribbon/internal/cloud"
	"ribbon/internal/dispatch"
	"ribbon/internal/experiments"
	"ribbon/internal/gateway"
	"ribbon/internal/models"
	"ribbon/internal/serving"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

const (
	serveModel = "CANDLE"
	// timeScale compresses stream time into wall time, for the simulated
	// backend and the gateway alike: a stream second takes half a wall second.
	timeScale     = 0.5
	churnWarmupMs = 250
	// gatewaySetups is how many gateways a serve pass constructs to take the
	// median set-up time from (the legs' own gateways included).
	gatewaySetups = 41
	setupWarmup   = 8
)

// servePool is the fixed CANDLE pool on c5a/m5/t3: a change to the search
// cannot change what the serve workloads serve.
var servePool = serving.Config{4, 1, 0}

// classMix is the 1:2:1 critical:standard:sheddable request mix.
var classMix = workload.ClassMix{Critical: 1, Standard: 2, Sheddable: 1}

func serveSpec() serving.PoolSpec {
	return serving.MustNewPoolSpec(models.MustLookup(serveModel), 0.99, experiments.PoolFor(serveModel)...)
}

// tier maps a class to its index in tierNames.
func tier(c workload.Criticality) int {
	switch c.Normalize() {
	case workload.ClassCritical:
		return 0
	case workload.ClassSheddable:
		return 2
	}
	return 1
}

// newGateway builds a gateway over the fixed pool with criticality dispatch
// and returns how long construction took. A traced gateway samples every
// request into a ring of traceCap slots.
func newGateway(ctx context.Context, be gateway.Backend, seed uint64, sched *chaos.Schedule, traceCap int) (*gateway.Gateway, time.Duration, error) {
	opts := gateway.Options{
		Spec:      serveSpec(),
		Backend:   be,
		Dispatch:  dispatch.Spec{Kind: dispatch.KindCriticality},
		Initial:   servePool.Clone(),
		Seed:      seed,
		TimeScale: timeScale,
	}
	if sched != nil {
		opts.Chaos = sched
		opts.WarmupMs = churnWarmupMs
	}
	if traceCap > 0 {
		opts.TraceSampleEvery = 1
		opts.TraceCapacity = traceCap
	}
	t0 := time.Now()
	g, err := gateway.New(ctx, opts)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("gateway: %w", err)
	}
	return g, d, nil
}

// moreSetups tops the set-up samples up to gatewaySetups by building and
// closing gateways over the fixed pool. The first few builds are not
// counted: in a fresh process they mostly time the heap growing.
func moreSetups(setups []float64, seed uint64) ([]float64, error) {
	for i := -setupWarmup; len(setups) < gatewaySetups; i++ {
		g, d, err := newGateway(context.Background(), instantBackend{}, seed, nil, 0)
		if err != nil {
			return nil, err
		}
		g.Close()
		if i >= 0 {
			setups = append(setups, d.Seconds())
		}
	}
	return setups, nil
}

// timedBackend wraps a backend to time every batch per instance family.
// When the batch carries request IDs (traced runs pass them as payloads) it
// records a backend span under each request's trace.
type timedBackend struct {
	inner gateway.Backend
	tr    *tracer

	mu  sync.Mutex
	fam map[string]*famStats
}

type famStats struct {
	calls   int
	busy    time.Duration
	serveMs []float64
}

func newTimedBackend(inner gateway.Backend, tr *tracer) *timedBackend {
	return &timedBackend{inner: inner, tr: tr, fam: map[string]*famStats{}}
}

func (b *timedBackend) Serve(ctx context.Context, t cloud.InstanceType, batch *gateway.Batch) (float64, error) {
	s := b.tr.now()
	ms, err := b.inner.Serve(ctx, t, batch)
	e := b.tr.now()
	b.mu.Lock()
	st := b.fam[t.Family]
	if st == nil {
		st = &famStats{}
		b.fam[t.Family] = st
	}
	st.calls++
	st.busy += time.Duration(e - s)
	st.serveMs = append(st.serveMs, ms)
	b.mu.Unlock()
	for _, p := range batch.Payloads {
		if len(p) == 8 {
			id := binary.LittleEndian.Uint64(p)
			b.tr.record(span{Trace: id, Parent: id, Name: "backend.serve", Start: s, End: e, Key: t.Family})
		}
	}
	return ms, err
}

// take returns the per-family stats gathered so far and resets them.
func (b *timedBackend) take() map[string]*famStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.fam
	b.fam = map[string]*famStats{}
	return out
}

// instantBackend answers every batch at once: the serve-ingress path then
// measures only the gateway's own admit, route and handoff work.
type instantBackend struct{}

func (instantBackend) Serve(context.Context, cloud.InstanceType, *gateway.Batch) (float64, error) {
	return 0, nil
}

// reqRec is one open-loop request's outcome. latMs is stream time from the
// request's due time to the reply. It is not Response.LatencyMs: the gateway
// anchors its stream clock on whichever request it admits first, so when
// that one is issued late every later latency reads short by as much.
type reqRec struct {
	done   bool
	tier   int
	lateMs float64
	out    gateway.Outcome
	err    error
	latMs  float64
	svcMs  float64
}

// dueAt is the wall time an arrival at arrivalMs of stream time is due,
// for a generator started at start.
func dueAt(start time.Time, arrivalMs, scale float64) time.Time {
	return start.Add(time.Duration(arrivalMs * scale * float64(time.Millisecond)))
}

// lateness is how far behind schedule a request was issued, in ms.
func lateness(due, issued time.Time) float64 {
	return float64(issued.Sub(due)) / float64(time.Millisecond)
}

// openLoop issues every query of the stream at its due time, whatever the
// gateway is doing: one generator goroutine paces the stream, and each
// request waits for its reply on a goroutine of its own. Lateness is taken
// when the request is handed to the gateway.
func openLoop(ctx context.Context, g *gateway.Gateway, st *workload.Stream, tr *tracer) []reqRec {
	recs := make([]reqRec, len(st.Queries))
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range st.Queries {
		due := dueAt(start, q.ArrivalMs, timeScale)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(r *reqRec, q workload.Query, due time.Time) {
			defer wg.Done()
			issue(ctx, g, r, q, due, tr)
		}(&recs[i], q, due)
	}
	wg.Wait()
	return recs
}

// issue sends one request through gateway.Ingest and records its outcome.
func issue(ctx context.Context, g *gateway.Gateway, r *reqRec, q workload.Query, due time.Time, tr *tracer) {
	r.tier = tier(q.Class)
	var payload []byte
	var id string
	var root span
	if tr != nil {
		root = span{Trace: tr.newID(), Name: "gateway.ingest"}
		root.ID = root.Trace
		payload = binary.LittleEndian.AppendUint64(nil, root.ID)
		id = strconv.FormatUint(root.ID, 10)
		root.Key = id
	}
	now := time.Now()
	r.lateMs = lateness(due, now)
	if tr != nil {
		root.Start = tr.now()
	}
	resp, out, err := g.IngestWithID(ctx, q.ArrivalMs, q.Batch, q.Class, payload, id)
	r.latMs = lateness(due, time.Now()) / timeScale
	if tr != nil {
		root.End = tr.now()
		tr.record(root)
	}
	r.out, r.err, r.svcMs, r.done = out, err, resp.ServiceMs, true
}

// tally counts one leg's outcomes by tier.
type tally struct {
	offered, served, shed, rejected, failed [3]int
}

func (t *tally) add(r reqRec) {
	t.offered[r.tier]++
	switch {
	case r.out == gateway.OutcomeShed:
		t.shed[r.tier]++
	case r.out == gateway.OutcomeRejected:
		t.rejected[r.tier]++
	case r.err != nil || !r.done:
		t.failed[r.tier]++
	default:
		t.served[r.tier]++
	}
}

func sum3(a [3]int) int { return a[0] + a[1] + a[2] }

// conserved checks request conservation after quiesce: every offered
// request ended served, shed, rejected or failed, in the benchmark's own
// tally and in the gateway's counters alike.
func conserved(t tally, snap gateway.Snapshot) error {
	offered := sum3(t.offered)
	if got := sum3(t.served) + sum3(t.shed) + sum3(t.rejected) + sum3(t.failed); got != offered {
		return fmt.Errorf("tally: served+shed+rejected+failed = %d, offered %d", got, offered)
	}
	var req, done uint64
	for _, ts := range snap.Tiers {
		req += ts.Requests
		done += ts.Completed + ts.Shed + ts.Rejected
	}
	if req != uint64(offered) || done+snap.Failed != uint64(offered) {
		return fmt.Errorf("gateway: requests %d, served+shed+rejected+failed %d, offered %d", req, done+snap.Failed, offered)
	}
	if snap.Completed != uint64(sum3(t.served)) || snap.Shed != uint64(sum3(t.shed)) || snap.Rejected != uint64(sum3(t.rejected)) {
		return fmt.Errorf("gateway counted %d/%d/%d served/shed/rejected, the callers saw %d/%d/%d",
			snap.Completed, snap.Shed, snap.Rejected, sum3(t.served), sum3(t.shed), sum3(t.rejected))
	}
	return nil
}

// leg is one serve-flood leg: a load multiple of the model's base rate and
// whether a capacity revocation and restore are scripted into it.
type leg struct {
	name  string
	rate  float64
	churn bool
}

var legs = []leg{{"nominal", 0.5, false}, {"overload", 1.0, false}, {"churn", 0.5, true}}

// churnSchedule revokes one c5a a third of the way into the stream and
// restores it two thirds in.
func churnSchedule(durMs float64) *chaos.Schedule {
	return &chaos.Schedule{HorizonMs: durMs, Events: []chaos.CapacityEvent{
		{AtMs: durMs / 3, Kind: chaos.KindRevocation, Family: "c5a", Count: 1},
		{AtMs: 2 * durMs / 3, Kind: chaos.KindRestore, Family: "c5a", Count: 1},
	}}
}

// runFlood drives the three serve-flood legs, each through a fresh gateway,
// leg i with streamMs[i] of stream time. It returns the number of requests
// offered.
func runFlood(res *result, seed uint64, streamMs []float64, tr *tracer, home bool) (int, error) {
	spec := serveSpec()
	m := spec.Model
	var setups []float64
	var lateMs []float64
	famServe := map[string][]float64{}
	offered := 0
	for li, lg := range legs {
		ls := stats.DeriveSeed(seed, "perfbench", "flood", lg.name)
		n := int(m.ArrivalRateQPS * lg.rate * streamMs[li] / 1000)
		st := workload.Generate(m, workload.Options{Queries: n, Seed: ls, RateScale: lg.rate, Mix: classMix})
		var sched *chaos.Schedule
		if lg.churn {
			sched = churnSchedule(st.Duration())
		}
		var be gateway.Backend = gateway.NewSimBackend(m, timeScale, ls)
		var tb *timedBackend
		traceCap := 0
		if tr != nil {
			tb = newTimedBackend(be, tr)
			be = tb
			traceCap = n + 16
		}
		wallLimit := time.Duration(st.Duration()*timeScale*float64(time.Millisecond)) + time.Minute
		ctx, cancel := context.WithTimeout(context.Background(), wallLimit)
		g, setup, err := newGateway(ctx, be, ls, sched, traceCap)
		if err != nil {
			cancel()
			return offered, err
		}
		setups = append(setups, setup.Seconds())
		t0 := time.Now()
		recs := openLoop(ctx, g, st, tr)
		wall := time.Since(t0)
		snap := g.Metrics()
		var admit []float64
		if tr != nil {
			admit = admitUs(g)
		}
		g.Close()
		cancel()
		offered += n

		var t tally
		var all, crit []float64
		good := 0
		wait := make([][]float64, 3)
		for _, r := range recs {
			t.add(r)
			lateMs = append(lateMs, r.lateMs)
			if r.out != gateway.OutcomeQueued || r.err != nil {
				continue
			}
			all = append(all, r.latMs)
			if r.tier == 0 {
				crit = append(crit, r.latMs)
			}
			if r.latMs <= m.QoSLatencyMs {
				good++
			}
			wait[r.tier] = append(wait[r.tier], r.latMs-r.svcMs)
		}
		res.attempted += n
		res.failed += sum3(t.failed)
		if err := conserved(t, snap); err != nil {
			res.check(false, "%s leg: %v", lg.name, err)
		}
		res.check(t.shed[0] == 0 && snap.Tiers[dispatch.NumRanks-1].Shed == 0,
			"%s leg: %d critical requests shed", lg.name, t.shed[0])
		res.check(sum3(t.failed) == 0, "%s leg: %d requests failed", lg.name, sum3(t.failed))

		goodput := float64(good) / (st.Duration() / 1000)
		res.set(lg.name+".goodput_qps", goodput)
		switch lg.name {
		case "nominal":
			res.setTail("nominal.p50_ms", windowedPct(all, 0.5))
			res.setTail("nominal.p99_ms", windowedPct(all, 0.99))
		case "overload":
			res.setTail("overload.critical_p99_ms", windowedPct(crit, 0.99))
		}
		if tr == nil {
			continue
		}
		p := "gateway." + lg.name
		res.setTail(p+".admit.p50_us", pct(admit, 0.5))
		res.setTail(p+".admit.p99_us", pct(admit, 0.99))
		for ti, tn := range tierNames {
			q := p + "." + tn
			res.setTail(q+".queue_wait.p50_ms", pct(wait[ti], 0.5))
			res.setTail(q+".queue_wait.p99_ms", pct(wait[ti], 0.99))
			res.set(q+".served", float64(t.served[ti]))
			res.set(q+".shed", float64(t.shed[ti]))
			res.set(q+".rejected", float64(t.rejected[ti]))
			res.set(q+".failed", float64(t.failed[ti]))
		}
		fams := tb.take()
		for fi, fam := range poolFamily {
			fs := fams[fam]
			if fs == nil {
				fs = &famStats{}
			}
			b := "backend." + lg.name + "." + fam
			res.set(b+".calls", float64(fs.calls))
			res.set(b+".busy_frac", fs.busy.Seconds()/(float64(servePool[fi])*wall.Seconds()))
			famServe[fam] = append(famServe[fam], fs.serveMs...)
		}
		tr.keep(tr.take())
	}
	setups, err := moreSetups(setups, seed)
	if err != nil {
		return offered, err
	}
	if home {
		res.set("setup_s", median(setups))
	}
	if tr != nil {
		for _, fam := range poolFamily {
			res.setTail("backend."+fam+".serve.p50_ms", pct(famServe[fam], 0.5))
			res.setTail("backend."+fam+".serve.p99_ms", pct(famServe[fam], 0.99))
		}
		res.setTail("gen.late.p99_ms", pct(lateMs, 0.99))
		mx := 0.0
		for _, l := range lateMs {
			mx = max(mx, l)
		}
		res.set("gen.late.max_ms", mx)
	}
	return offered, nil
}

// admitUs returns each traced request's admit stage in wall microseconds,
// read from the gateway's own per-request trace ring: the stage ends inside
// the gateway, so the benchmark cannot time it from outside.
func admitUs(g *gateway.Gateway) []float64 {
	var out []float64
	for _, t := range g.Traces() {
		for _, s := range t.Spans {
			if s.Name == "admit" {
				out = append(out, (s.EndMs-s.StartMs)*timeScale*1000)
			}
		}
	}
	return out
}

// ingressWindow is the interval the closed loop's mean round trip is
// sampled over; ingress_p50_us is the median over the windows.
const ingressWindow = 250 * time.Millisecond

// caller is one closed-loop client's counters, padded so the callers do
// not share a cache line.
type caller struct {
	sent  atomic.Int64
	bad   atomic.Int64
	rttNs atomic.Int64
	rttUs []float64
	_     [64]byte
}

func newCallers(n int) []*caller {
	cs := make([]*caller, n)
	for i := range cs {
		cs[i] = &caller{}
	}
	return cs
}

// closedLoop runs the callers until the deadline, each sending its next
// request when the previous one returns. Every 64th request's round trip is
// kept and, with a tracer, carries its ID to the backend.
func closedLoop(ctx context.Context, g *gateway.Gateway, st *workload.Stream, callers []*caller, epoch, until time.Time, tr *tracer) {
	var wg sync.WaitGroup
	for c, cl := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; time.Now().Before(until); k += len(callers) {
				q := st.Queries[k%len(st.Queries)]
				n := k / len(callers)
				var payload []byte
				var id uint64
				if tr != nil && n%64 == 0 {
					id = tr.newID()
					payload = binary.LittleEndian.AppendUint64(nil, id)
				}
				t0 := time.Now()
				arrival := float64(t0.Sub(epoch)) / float64(time.Millisecond) / timeScale
				_, out, err := g.Ingest(ctx, arrival, q.Batch, q.Class, payload)
				rtt := time.Since(t0)
				if out != gateway.OutcomeQueued || err != nil {
					cl.bad.Add(1)
				}
				cl.rttNs.Add(int64(rtt))
				cl.sent.Add(1)
				if n%64 == 0 {
					cl.rttUs = append(cl.rttUs, float64(rtt)/1e3)
				}
				if id != 0 {
					end := tr.now()
					tr.record(span{Trace: id, ID: id, Name: "gateway.ingest", Start: end - int64(rtt), End: end})
				}
			}
		}()
	}
	wg.Wait()
}

// sampleWindows reads the callers' counters every ingressWindow until stop
// closes and returns each window's mean round trip in microseconds.
func sampleWindows(callers []*caller, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(ingressWindow)
	defer tick.Stop()
	read := func() (n, rtt int64) {
		for _, cl := range callers {
			n += cl.sent.Load()
			rtt += cl.rttNs.Load()
		}
		return n, rtt
	}
	prevN, prevRTT := read()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		n, rtt := read()
		if dn := n - prevN; dn > 0 {
			out = append(out, float64(rtt-prevRTT)/1e3/float64(dn))
		}
		prevN, prevRTT = n, rtt
	}
}

// runIngress drives a closed loop of nproc callers through gateway.Ingest
// behind a backend that answers at once, first for a short warm-up, then
// for seconds. The round trip of a single request is multimodal (a
// handoff that stays on one core takes about a third of one that wakes the
// other), so its median jumps between modes from process to process;
// ingress_p50_us is therefore the median over windows of each window's mean
// round trip, and the raw per-request percentiles are per-layer metrics.
// It returns the number of requests sent.
func runIngress(res *result, seed uint64, seconds float64, tr *tracer, home bool) (int, error) {
	m := serveSpec().Model
	st := workload.Generate(m, workload.Options{Queries: 4096, Seed: stats.DeriveSeed(seed, "perfbench", "ingress"), Mix: classMix})
	var be gateway.Backend = instantBackend{}
	traceCap := 0
	if tr != nil {
		be = newTimedBackend(be, tr)
		traceCap = 1 << 14
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+time.Minute)
	defer cancel()
	g, d, err := newGateway(ctx, be, seed, nil, traceCap)
	if err != nil {
		return 0, err
	}
	defer g.Close()
	setups, err := moreSetups([]float64{d.Seconds()}, seed)
	if err != nil {
		return 0, err
	}
	if home {
		res.set("setup_s", median(setups))
	}

	ncall := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	epoch := time.Now()
	closedLoop(ctx, g, st, newCallers(ncall), epoch, time.Now().Add(300*time.Millisecond), nil)
	callers := newCallers(ncall)
	stop := make(chan struct{})
	sampled := make(chan []float64)
	go func() { sampled <- sampleWindows(callers, stop) }()
	cpu0, t0 := cpuTime(), time.Now()
	closedLoop(ctx, g, st, callers, epoch, t0.Add(time.Duration(seconds*float64(time.Second))), tr)
	cpu1, wall := cpuTime(), time.Since(t0)
	close(stop)
	wins := <-sampled

	sent, bad := 0, 0
	var rtt []float64
	for _, cl := range callers {
		sent += int(cl.sent.Load())
		bad += int(cl.bad.Load())
		rtt = append(rtt, cl.rttUs...)
	}
	res.attempted += sent
	res.failed += bad
	res.check(bad == 0, "serve-ingress: %d of %d requests not served", bad, sent)
	res.check(len(wins) > 0 && sent > 0, "serve-ingress: no sampling window completed")
	res.set("ingress_rps", float64(sent)/wall.Seconds())
	res.set("ingress_cpu_us_per_req", float64(cpu1-cpu0)/1e3/float64(max(sent, 1)))
	res.set("ingress_p50_us", median(wins))
	if tr == nil {
		return sent, nil
	}
	admit := admitUs(g)
	res.setTail("gateway.ingress.admit.p50_us", pct(admit, 0.5))
	res.setTail("gateway.ingress.admit.p99_us", pct(admit, 0.99))
	res.setTail("gateway.ingress.rtt.p50_us", pct(rtt, 0.5))
	res.setTail("gateway.ingress.rtt.p99_us", pct(rtt, 0.99))
	res.set("gateway.ingress.served", float64(sent-bad))
	spans := tr.take()
	backendNs := map[uint64]int64{}
	for _, s := range spans {
		if s.Name == "backend.serve" {
			backendNs[s.Trace] = s.End - s.Start
		}
	}
	var hand []float64
	for _, s := range spans {
		if b, ok := backendNs[s.Trace]; ok && s.Name == "gateway.ingest" {
			hand = append(hand, float64(s.End-s.Start-b)/1e3)
		}
	}
	res.setTail("gateway.ingress.handoff.p50_us", pct(hand, 0.5))
	tr.keep(spans)
	return sent, nil
}
