//go:build goexperiment.synctest

// Virtual-time tests of the live data plane. Every testing/synctest call
// lives in this file: Go 1.25 replaces synctest.Run with synctest.Test, and
// the tests only build with GOEXPERIMENT=synctest:
//
//	GOEXPERIMENT=synctest go test -race -run Virtual ./internal/gateway
//
// Inside a bubble time.Now, time.Sleep and timers follow a fake clock that
// advances only when every goroutine in the bubble is blocked, so a gateway
// at TimeScale 1 replays a stream exactly, in a fraction of a wall second.

package gateway

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"ribbon/internal/chaos"
	"ribbon/internal/cloud"
	"ribbon/internal/dispatch"
	"ribbon/internal/models"
	"ribbon/internal/perf"
	"ribbon/internal/serving"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

// virtualBackend sleeps out the calibrated service time like SimBackend, but
// draws each call's noise from a stream keyed on its query's stream index,
// carried as the payload. A pooled noise stream would hand out draws in
// goroutine-schedule order; keyed draws make a replay a function of the
// stream alone. Like the simulator it serves one query per call, and it
// panics on a call that carries anything else.
type virtualBackend struct {
	model models.Profile
	seed  uint64
}

func (b virtualBackend) Serve(ctx context.Context, t cloud.InstanceType, batch *Batch) (float64, error) {
	if batch.Requests != 1 || len(batch.Payloads) != 1 {
		panic(fmt.Sprintf("virtualBackend: a call carries %d requests and %d payloads, want 1 and 1",
			batch.Requests, len(batch.Payloads)))
	}
	idx := binary.LittleEndian.Uint32(batch.Payloads[0])
	rng := stats.Derive(b.seed, "virtual", strconv.FormatUint(uint64(idx), 10))
	ms := perf.NoisyServiceMs(b.model, t, batch.Samples, rng)
	return ms, sleepFor(ctx, time.Duration(ms*float64(time.Millisecond)), 1)
}

// virtualResult is one query's fate in a replay.
type virtualResult struct {
	out Outcome
	err error
	// latencyMs is the served latency; +Inf when the query was shed,
	// rejected or failed.
	latencyMs float64
}

// replayVirtual replays st through Ingest on a gateway built from opts in a
// synctest bubble at TimeScale 1, one caller per query issued at its
// arrival time, and returns each query's result in stream order. at, when
// non-nil, runs on the driver just before query i is issued.
func replayVirtual(t *testing.T, opts Options, st *workload.Stream, at func(g *Gateway, i int)) []virtualResult {
	t.Helper()
	opts.TimeScale = 1
	if opts.Backend == nil {
		opts.Backend = virtualBackend{model: opts.Spec.Model, seed: opts.Seed}
	}
	res := make([]virtualResult, len(st.Queries))
	// The bubble's root holds mu while it runs, so the caller's Lock below
	// orders everything the bubble wrote before what the caller reads.
	var mu sync.Mutex
	defer mu.Unlock()
	synctest.Run(func() {
		mu.Lock()
		defer mu.Unlock()
		g, err := New(context.Background(), opts)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := context.Background()
		start := time.Now()
		var wg sync.WaitGroup
		for i, q := range st.Queries {
			time.Sleep(time.Until(start.Add(time.Duration(q.ArrivalMs * float64(time.Millisecond)))))
			if at != nil {
				at(g, i)
			}
			payload := binary.LittleEndian.AppendUint32(nil, uint32(i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, out, err := g.Ingest(ctx, q.ArrivalMs, q.Batch, q.Class, payload)
				r := virtualResult{out: out, err: err, latencyMs: math.Inf(1)}
				if out == OutcomeQueued && err == nil {
					r.latencyMs = resp.LatencyMs
				}
				res[i] = r
			}()
		}
		if at != nil {
			at(g, len(st.Queries))
		}
		wg.Wait()
		g.Close()
	})
	mu.Lock()
	return res
}

// Conformance: the pool {3,2,2}, seed 7, 4000 queries, class mix 1:2:1.
const (
	virtualSeed    = 7
	virtualQueries = 4000
)

var virtualPool = serving.Config{3, 2, 2}

type virtualCase struct {
	spec serving.PoolSpec
	load float64
}

func virtualCases() []virtualCase {
	candle := serving.MustNewPoolSpec(models.MustLookup("CANDLE"), 0.99, "c5a", "m5", "t3")
	mtwnd := serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "c5", "r5n")
	return []virtualCase{{candle, 1}, {candle, 1.5}, {mtwnd, 1}, {mtwnd, 1.5}}
}

func (c virtualCase) name(kind dispatch.Kind) string {
	return fmt.Sprintf("%s/%gx/%s", c.spec.Model.Name, c.load, kind)
}

func (c virtualCase) stream() *workload.Stream {
	return workload.Generate(c.spec.Model, workload.Options{
		Queries:   virtualQueries,
		Seed:      virtualSeed,
		RateScale: c.load,
		Mix:       workload.ClassMix{Critical: 1, Standard: 2, Sheddable: 1},
	})
}

// options is the live side of a case. QueueDepth holds the whole stream:
// simulator queues are unbounded, so nothing may be rejected.
func (c virtualCase) options(kind dispatch.Kind) Options {
	return Options{
		Spec:       c.spec,
		Dispatch:   dispatch.Spec{Kind: kind},
		Initial:    virtualPool,
		Seed:       virtualSeed,
		QueueDepth: virtualQueries,
	}
}

// tierStats is what conformance compares, over the measured window (the
// last 90% of queries, as the simulator counts).
type tierStats struct {
	rsat     [dispatch.NumRanks]float64
	p99Ms    float64
	shedRate float64
}

func liveStats(st *workload.Stream, res []virtualResult, qosMs, pct float64) tierStats {
	warm := len(st.Queries) / 10
	var met, total [dispatch.NumRanks]int
	lat := make([]float64, 0, len(res)-warm)
	shed := 0
	for i := warm; i < len(res); i++ {
		rank := st.Queries[i].Class.Rank()
		total[rank]++
		if res[i].latencyMs <= qosMs {
			met[rank]++
		}
		if res[i].out == OutcomeShed {
			shed++
		}
		lat = append(lat, res[i].latencyMs)
	}
	var s tierStats
	for r := range s.rsat {
		s.rsat[r] = float64(met[r]) / float64(total[r])
	}
	s.p99Ms = stats.PercentileInPlace(lat, pct)
	s.shedRate = float64(shed) / float64(len(lat))
	return s
}

func simStats(r serving.Result) tierStats {
	s := tierStats{p99Ms: r.TailLatencyMs, shedRate: r.ShedRate}
	for _, c := range r.Classes {
		s.rsat[c.Class.Rank()] = c.Rsat
	}
	return s
}

// Conformance tolerances. The live replay is deterministic, so they only
// cover real model differences: the simulator draws service noise from one
// stream in assignment order, the harness per query, and the live clock
// rounds to nanoseconds.
const (
	rsatTol = 0.10 // absolute, per tier
	p99Tol  = 0.20 // relative
	shedTol = 0.01 // absolute
)

// TestVirtualConformance checks that the live gateway serves as the
// simulator the optimizer sizes pools with predicts: both models at 1x and
// 1.5x under every built-in policy, per-tier Rsat, p99 and shed rate
// within the tolerances above.
func TestVirtualConformance(t *testing.T) {
	for _, c := range virtualCases() {
		st := c.stream()
		for _, kind := range dispatch.Kinds() {
			t.Run(c.name(kind), func(t *testing.T) {
				opts := c.options(kind)
				sim := simStats(serving.NewTraceEvaluator(c.spec,
					serving.SimOptions{Seed: virtualSeed, Dispatch: opts.Dispatch}, st).Evaluate(virtualPool))
				res := replayVirtual(t, opts, st, nil)
				for i, r := range res {
					if r.out == OutcomeRejected || (r.out == OutcomeQueued && r.err != nil) {
						t.Fatalf("query %d: outcome %v, err %v; conformance needs every query served or shed", i, r.out, r.err)
					}
				}
				live := liveStats(st, res, c.spec.Model.QoSLatencyMs, c.spec.QoSPercentile)
				t.Logf("Rsat sheddable/standard/critical sim %.3f/%.3f/%.3f live %.3f/%.3f/%.3f; p99 sim %.1f live %.1f ms; shed sim %.4f live %.4f",
					sim.rsat[0], sim.rsat[1], sim.rsat[2], live.rsat[0], live.rsat[1], live.rsat[2],
					sim.p99Ms, live.p99Ms, sim.shedRate, live.shedRate)
				for r := range sim.rsat {
					if d := math.Abs(sim.rsat[r] - live.rsat[r]); d > rsatTol {
						t.Errorf("%s Rsat: simulator %.3f, live %.3f (|diff| %.3f > %.2f)",
							tierNames[r], sim.rsat[r], live.rsat[r], d, rsatTol)
					}
				}
				if !math.IsInf(sim.p99Ms, 1) && !math.IsInf(live.p99Ms, 1) {
					if d := math.Abs(live.p99Ms-sim.p99Ms) / sim.p99Ms; d > p99Tol {
						t.Errorf("p99: simulator %.1f ms, live %.1f ms (%.0f%% apart > %.0f%%)",
							sim.p99Ms, live.p99Ms, 100*d, 100*p99Tol)
					}
				}
				if d := math.Abs(sim.shedRate - live.shedRate); d > shedTol {
					t.Errorf("shed rate: simulator %.4f, live %.4f (|diff| %.4f > %.3f)",
						sim.shedRate, live.shedRate, d, shedTol)
				}
			})
		}
	}
}

// TestVirtualDeterminism replays the same stream twice, the second time on
// one processor, and requires identical results: synctest fixes the clock,
// not the goroutine schedule, so this pins that nothing the data plane
// decides follows the schedule. cost-random is included: its draw comes
// from the request, not from a pooled router stream.
func TestVirtualDeterminism(t *testing.T) {
	c := virtualCases()[3] // MT-WND at 1.5x: a backlog in every policy
	st := c.stream()
	for _, kind := range dispatch.Kinds() {
		t.Run(c.name(kind), func(t *testing.T) {
			first := replayVirtual(t, c.options(kind), st, nil)
			prev := runtime.GOMAXPROCS(1)
			second := replayVirtual(t, c.options(kind), st, nil)
			runtime.GOMAXPROCS(prev)
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("query %d: %+v then %+v", i, first[i], second[i])
				}
			}
		})
	}
}

// TestVirtualConservation floods an undersized pool through one
// reconfiguration, a revocation that retires a whole family, its restore,
// and a Close while requests still wait in the shared queue. Every request
// must end served, shed, rejected or failed — in the callers' tally and in
// the gateway's counters alike — and every retired worker must have exited.
func TestVirtualConservation(t *testing.T) {
	spec := serving.MustNewPoolSpec(models.MustLookup("CANDLE"), 0.99, "c5a", "m5", "t3")
	st := workload.Generate(spec.Model, workload.Options{
		Queries:   3000,
		Seed:      virtualSeed,
		RateScale: 2,
		Mix:       workload.ClassMix{Critical: 1, Standard: 2, Sheddable: 1},
	})
	n := len(st.Queries)
	var snap Snapshot
	var sharedAtClose int64
	var live map[*instance]bool
	var all []*instance
	at := func(g *Gateway, i int) {
		switch i {
		case n / 5:
			g.applyConfig(serving.Config{3, 0, 2})
		case 2 * n / 5:
			if err := g.Inject(chaos.CapacityEvent{AtMs: st.Queries[i].ArrivalMs, Kind: chaos.KindRevocation, Family: "c5a", Count: 3}); err != nil {
				t.Error(err)
			}
			if got := g.Config().Key(); got != "0+0+2" {
				t.Errorf("pool after revoking every c5a = %s, want 0+0+2", got)
			}
		case 3 * n / 5:
			if err := g.Inject(chaos.CapacityEvent{AtMs: st.Queries[i].ArrivalMs, Kind: chaos.KindRestore, Family: "c5a", Count: 3}); err != nil {
				t.Error(err)
			}
		case n:
			synctest.Wait() // every caller admitted and waiting
			sharedAtClose = g.sharedLen.Load()
			live = make(map[*instance]bool)
			for _, inst := range g.pool.Load().instances {
				live[inst] = true
			}
			g.instMu.Lock()
			all = append(all, g.all...)
			g.instMu.Unlock()
			for _, inst := range all {
				if live[inst] {
					continue
				}
				select {
				case <-inst.done:
				default:
					t.Errorf("retired instance %d (%s) still running at Close", inst.id, inst.name)
				}
			}
			g.Close()
			snap = g.Metrics()
		}
	}
	res := replayVirtual(t, Options{
		Spec:       spec,
		Dispatch:   dispatch.Spec{Kind: dispatch.KindCriticality},
		Initial:    serving.Config{2, 1, 1},
		Seed:       virtualSeed,
		QueueDepth: 64,
	}, st, at)

	if sharedAtClose == 0 {
		t.Fatal("the shared queue was empty at Close; the test does not exercise its drain")
	}
	if len(all) == len(live) {
		t.Fatal("no instance retired; the test does not exercise drain-then-retire")
	}
	var served, shed, rejected, failed uint64
	for _, r := range res {
		switch {
		case r.out == OutcomeShed:
			shed++
		case r.out == OutcomeRejected:
			rejected++
		case r.err != nil:
			failed++
		default:
			served++
		}
	}
	t.Logf("%d requests: %d served, %d shed, %d rejected, %d failed; %d in the shared queue at Close",
		n, served, shed, rejected, failed, sharedAtClose)
	if failed == 0 || rejected == 0 {
		t.Errorf("want failures from Close and rejections from full queues, got %d and %d", failed, rejected)
	}
	var requests uint64
	for _, ts := range snap.Tiers {
		requests += ts.Requests
	}
	if requests != uint64(n) {
		t.Errorf("gateway counted %d requests, offered %d", requests, n)
	}
	if got := snap.Completed + snap.Shed + snap.Rejected + snap.Failed; got != uint64(n) {
		t.Errorf("gateway: served+shed+rejected+failed = %d, offered %d", got, n)
	}
	if snap.Completed != served || snap.Shed != shed || snap.Rejected != rejected || snap.Failed != failed {
		t.Errorf("gateway counted %d/%d/%d/%d served/shed/rejected/failed, the callers saw %d/%d/%d/%d",
			snap.Completed, snap.Shed, snap.Rejected, snap.Failed, served, shed, rejected, failed)
	}
	if snap.QueueDepth != 0 {
		t.Errorf("%d requests still queued after Close", snap.QueueDepth)
	}
}
