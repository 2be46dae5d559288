package gateway

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"ribbon/internal/cloud"
	"ribbon/internal/dispatch"
	"ribbon/internal/models"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// nullBackend serves instantly; for routing and allocation tests where
// service time is irrelevant.
type nullBackend struct{}

func (nullBackend) Serve(ctx context.Context, t cloud.InstanceType, b *Batch) (float64, error) {
	return 0.01, nil
}

func testSpec(t testing.TB) serving.PoolSpec {
	t.Helper()
	m, err := models.Lookup("CANDLE")
	if err != nil {
		t.Fatalf("lookup model: %v", err)
	}
	return serving.MustNewPoolSpec(m, 0.99, "c5a", "m5", "t3")
}

// newStaticGateway builds a static (no controller) gateway over the null
// backend with a fixed pool, skipping searches entirely.
func newStaticGateway(t testing.TB, opts Options) *Gateway {
	t.Helper()
	if opts.Spec.Dim() == 0 {
		opts.Spec = testSpec(t)
	}
	if opts.Backend == nil {
		opts.Backend = nullBackend{}
	}
	if opts.Initial == nil {
		opts.Initial = serving.Config{2, 2, 2}
	}
	if opts.Bounds == nil {
		opts.Bounds = []int{8, 8, 8}
	}
	if opts.Sim.Queries == 0 {
		opts.Sim.Queries = 400
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 0.001 // tests never wait on real time
	}
	g, err := New(context.Background(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

func TestGatewayServesRequests(t *testing.T) {
	g := newStaticGateway(t, Options{})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		resp, out, err := g.Ingest(ctx, float64(i), 1, workload.ClassStandard, nil)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if out != OutcomeQueued {
			t.Fatalf("ingest %d: outcome %v", i, out)
		}
		if resp.Instance == "" {
			t.Fatalf("ingest %d: no serving instance", i)
		}
	}
	s := g.Metrics()
	if s.Accepted != 50 || s.Completed != 50 {
		t.Fatalf("accepted=%d completed=%d, want 50/50", s.Accepted, s.Completed)
	}
	if s.Shed != 0 || s.Rejected != 0 || s.Failed != 0 {
		t.Fatalf("unexpected drops: %+v", s)
	}
	std := s.Tiers[workload.ClassStandard.Rank()]
	if std.Completed != 50 {
		t.Fatalf("standard tier completed=%d, want 50", std.Completed)
	}
	if std.P50Ms <= 0 || std.P99Ms < std.P50Ms {
		t.Fatalf("implausible latency quantiles: p50=%g p99=%g", std.P50Ms, std.P99Ms)
	}
	if got := g.Config(); got.Key() != "2+2+2" {
		t.Fatalf("deployed config %v, want (2+2+2)", got)
	}
}

func TestGatewayClassesRideTheirTiers(t *testing.T) {
	g := newStaticGateway(t, Options{})
	ctx := context.Background()
	classes := []workload.Criticality{workload.ClassCritical, workload.ClassStandard, workload.ClassSheddable}
	for i, c := range classes {
		if _, out, err := g.Ingest(ctx, float64(i), 1, c, nil); err != nil || out != OutcomeQueued {
			t.Fatalf("ingest %s: out=%v err=%v", c, out, err)
		}
	}
	s := g.Metrics()
	for _, c := range classes {
		if got := s.Tiers[c.Rank()].Completed; got != 1 {
			t.Fatalf("tier %s completed=%d, want 1", c, got)
		}
	}
}

// TestGatewayRejectsWhenSaturated drives a gateway whose workers are wedged
// (blocked backend) until every queue is full and checks the overflow is
// rejected, not dropped silently or blocked on.
func TestGatewayRejectsWhenSaturated(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	g := newStaticGateway(t, Options{
		Initial:    serving.Config{1, 0, 0},
		QueueDepth: 4,
		Backend: backendFunc(func(ctx context.Context, _ cloud.InstanceType, _ *Batch) (float64, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return 0.01, nil
		}),
	})
	// 1 instance, queue depth 4: the worker takes one request into its
	// batch and wedges; 4 more fill rank 0 of the shared queue, where fcfs
	// parks every class. Everything after that must reject.
	sawReject := false
	for i := 0; i < 32 && !sawReject; i++ {
		out := g.IngestAsync(float64(i), 1, workload.ClassStandard)
		sawReject = out == OutcomeRejected
	}
	if !sawReject {
		t.Fatal("no rejection despite a wedged pool")
	}
	if got := g.Metrics().Rejected; got == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

// backendFunc adapts a function to the Backend interface.
type backendFunc func(ctx context.Context, t cloud.InstanceType, b *Batch) (float64, error)

func (f backendFunc) Serve(ctx context.Context, t cloud.InstanceType, b *Batch) (float64, error) {
	return f(ctx, t, b)
}

// TestGatewayOverloadShedsOnlySheddable floods a criticality-policy gateway
// at ~4x its capacity and verifies the paper's contract: Sheddable traffic
// absorbs the overload, Critical and Standard are never shed.
func TestGatewayOverloadShedsOnlySheddable(t *testing.T) {
	release := make(chan struct{})
	g := newStaticGateway(t, Options{
		Initial:    serving.Config{1, 1, 0},
		QueueDepth: 4096,
		Dispatch:   dispatch.Spec{Kind: dispatch.KindCriticality, ShedQueueLength: 8},
		Backend: backendFunc(func(ctx context.Context, _ cloud.InstanceType, _ *Batch) (float64, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return 0.01, nil
		}),
	})
	// Wedge the pool, then offer far more than ShedQueueLength of mixed
	// traffic: queue pressure is guaranteed high when the sheddable
	// arrivals land.
	classes := []workload.Criticality{
		workload.ClassCritical, workload.ClassStandard, workload.ClassSheddable, workload.ClassSheddable,
	}
	for i := 0; i < 400; i++ {
		g.IngestAsync(float64(i), 1, classes[i%len(classes)])
	}
	s := g.Metrics()
	if s.Shed == 0 {
		t.Fatal("no shedding despite sustained overload")
	}
	crit := s.Tiers[workload.ClassCritical.Rank()]
	std := s.Tiers[workload.ClassStandard.Rank()]
	shd := s.Tiers[workload.ClassSheddable.Rank()]
	if crit.Shed != 0 || crit.Rejected != 0 {
		t.Fatalf("critical tier dropped: shed=%d rejected=%d", crit.Shed, crit.Rejected)
	}
	if std.Shed != 0 {
		t.Fatalf("standard tier shed %d queries", std.Shed)
	}
	if shd.Shed == 0 {
		t.Fatal("sheddable tier absorbed no overload")
	}
	close(release)
}

// TestGatewayDispatchAllocs verifies the ingest hot path is allocation-free
// in steady state: pooled requests, atomic counters, snapshot routing.
func TestGatewayDispatchAllocs(t *testing.T) {
	g := newStaticGateway(t, Options{Initial: serving.Config{2, 2, 2}})
	ctx := context.Background()
	// Warm the request pool and the pool snapshot. Synchronous ingest
	// self-throttles, so the measurement never depends on workers
	// outracing the loop.
	for i := 0; i < 64; i++ {
		if _, _, err := g.Ingest(ctx, float64(i), 1, workload.ClassStandard, nil); err != nil {
			t.Fatalf("warm ingest: %v", err)
		}
	}
	arrival := 64.0
	avg := testing.AllocsPerRun(2000, func() {
		arrival++
		_, out, err := g.Ingest(ctx, arrival, 1, workload.ClassStandard, nil)
		if err != nil || out != OutcomeQueued {
			t.Fatalf("outcome %v err %v", out, err)
		}
	})
	// Transient sync.Pool misses (the null backend's worker recycles
	// requests from its own P) allow a small remainder; anything near one
	// alloc per request means the pooling regressed.
	if avg > 0.5 {
		t.Fatalf("ingest allocates %.2f objects per request, want ~0", avg)
	}
}

// BenchmarkGatewayDispatch measures the admit+route+serve round trip on the
// null backend, serial and with GOMAXPROCS-parallel ingest — the lock-free
// hot path should scale with cores.
func BenchmarkGatewayDispatch(b *testing.B) {
	bench := func(b *testing.B, parallel bool) {
		g := newStaticGateway(b, Options{Initial: serving.Config{4, 4, 4}, QueueDepth: 1 << 14})
		for i := 0; i < 512; i++ {
			g.IngestAsync(float64(i), 1, workload.ClassStandard)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				arrival := 1024.0
				for pb.Next() {
					arrival++
					g.IngestAsync(arrival, 1, workload.ClassStandard)
				}
			})
			return
		}
		arrival := 1024.0
		for i := 0; i < b.N; i++ {
			arrival++
			g.IngestAsync(arrival, 1, workload.ClassStandard)
		}
	}
	b.Run("serial", func(b *testing.B) { bench(b, false) })
	b.Run("parallel", func(b *testing.B) { bench(b, true) })
}

// TestGatewayConcurrentIngest hammers one gateway from GOMAXPROCS goroutines
// mixing sync and async ingest with metric reads; meaningful under -race.
func TestGatewayConcurrentIngest(t *testing.T) {
	g := newStaticGateway(t, Options{Initial: serving.Config{2, 2, 2}, QueueDepth: 1 << 12})
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				arrival := float64(w*perWorker + i)
				switch i % 3 {
				case 0:
					g.IngestAsync(arrival, 1, workload.ClassSheddable)
				case 1:
					if _, _, err := g.Ingest(ctx, arrival, 1, workload.ClassCritical, nil); err != nil {
						t.Errorf("sync ingest: %v", err)
					}
				default:
					_ = g.Metrics()
				}
			}
		}(w)
	}
	wg.Wait()
	g.Close() // fail out anything still queued so outcomes total up
	s := g.Metrics()
	want := uint64(workers * perWorker * 2 / 3)
	got := s.Completed + s.Shed + s.Rejected + s.Failed
	if got < want {
		t.Fatalf("outcomes %d < offered %d", got, want)
	}
}

// TestGatewayApplyConfigDrainsRetired reshapes the pool under concurrent
// load and verifies no admitted request is lost: every accepted request
// completes (or fails loudly), and retired instances exit.
func TestGatewayApplyConfigDrainsRetired(t *testing.T) {
	g := newStaticGateway(t, Options{Initial: serving.Config{3, 3, 3}, QueueDepth: 1 << 12})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		arrival := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			arrival++
			g.IngestAsync(arrival, 1, workload.ClassStandard)
		}
	}()
	configs := []serving.Config{{1, 0, 0}, {2, 3, 1}, {0, 1, 4}, {3, 3, 3}}
	var accepted uint64
	for _, cfg := range configs {
		// Reconfigure only under observed load: without this the four
		// reshapes can all finish before the flood goroutine first runs.
		deadline := time.Now().Add(10 * time.Second)
		for g.Metrics().Accepted == accepted {
			if time.Now().After(deadline) {
				t.Fatalf("no request admitted within 10s before applying %v", cfg)
			}
			time.Sleep(100 * time.Microsecond)
		}
		accepted = g.Metrics().Accepted
		g.applyConfig(cfg)
		if got := g.Config(); got.Key() != cfg.Key() {
			t.Fatalf("deployed %v, want %v", got, cfg)
		}
	}
	close(stop)
	wg.Wait()
	g.Close()
	s := g.Metrics()
	if s.Accepted == 0 {
		t.Fatal("flood admitted nothing")
	}
	if done := s.Completed + s.Failed; done != s.Accepted {
		t.Fatalf("accepted %d but only %d completed+failed after Close", s.Accepted, done)
	}
}
