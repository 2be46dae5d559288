package gateway

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"ribbon/api"
	"ribbon/internal/chaos"
	"ribbon/internal/cloud"
	"ribbon/internal/controller"
	"ribbon/internal/serving"
	"ribbon/internal/slo"
	"ribbon/internal/workload"
)

// fastSLO returns rules sized for flood tests at TimeScale 0.001: the long
// window is 20ms of wall time, wide enough that even a race-instrumented
// ingest loop lands several arrivals per short window (the MinEvents guard
// needs them), yet a sustained failure still pages within a second.
func fastSLO(trigger bool) *SLOOptions {
	return &SLOOptions{
		SampleEveryMs: 500,
		MinEvents:     3,
		Trigger:       trigger,
		Rules: []slo.Rule{
			{Severity: slo.SeverityPage, Burn: 5, LongMs: 20_000, ShortMs: 10_000},
		},
	}
}

func TestGatewaySLOStatusAndEndpoint(t *testing.T) {
	g := newStaticGateway(t, Options{SLO: &SLOOptions{}})
	s, ok := g.SLOStatus()
	if !ok {
		t.Fatal("SLO engine configured but SLOStatus reports disabled")
	}
	if len(s.Objectives) != 9 {
		t.Fatalf("objectives = %d, want 9 (3 kinds x 3 tiers)", len(s.Objectives))
	}
	kinds := map[string]int{}
	tiers := map[string]int{}
	for _, o := range s.Objectives {
		kinds[o.Kind]++
		tiers[o.Tier]++
	}
	for _, k := range []string{"qos_attainment", "latency", "shed_rate"} {
		if kinds[k] != 3 {
			t.Errorf("kind %s has %d objectives, want 3", k, kinds[k])
		}
	}
	for _, tier := range tierNames {
		if tiers[tier] != 3 {
			t.Errorf("tier %s has %d objectives, want 3", tier, tiers[tier])
		}
	}

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/gateway/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/gateway/slo = %d", resp.StatusCode)
	}
	var dto api.SLOStatus
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dto.Objectives) != 9 {
		t.Fatalf("wire objectives = %d, want 9", len(dto.Objectives))
	}
	if dto.Objectives[0].Rules == nil || dto.Objectives[0].Windows == nil {
		t.Fatal("objective serialized without rules or windows")
	}
}

func TestGatewaySLODisabled(t *testing.T) {
	g := newStaticGateway(t, Options{})
	if _, ok := g.SLOStatus(); ok {
		t.Fatal("SLOStatus reports an engine on an SLO-free gateway")
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/gateway/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("GET /v1/gateway/slo on a disabled engine = %d, want 404", resp.StatusCode)
	}
}

func TestGatewaySLOOptionValidation(t *testing.T) {
	bad := []Options{
		{SLO: &SLOOptions{SampleEveryMs: -1}},
		{SLO: &SLOOptions{Rules: []slo.Rule{{Severity: slo.SeverityPage, Burn: -1, LongMs: 2, ShortMs: 1}}}},
	}
	for i, opts := range bad {
		opts.Spec = testSpec(t)
		opts.Backend = nullBackend{}
		opts.Initial = serving.Config{1, 1, 1}
		if g, err := New(context.Background(), opts); err == nil {
			g.Close()
			t.Errorf("bad SLO options %d accepted", i)
		}
	}
}

// TestGatewaySLOAlertOnSustainedFailure wedges the pool so every offered
// request is eventually rejected: the qos-attainment error rate pins at 1,
// the burn rate crosses the page threshold, and the alert must land on the
// audit trail and in the status snapshot.
func TestGatewaySLOAlertOnSustainedFailure(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	g := newStaticGateway(t, Options{
		Initial:    serving.Config{1, 0, 0},
		QueueDepth: 2,
		SLO:        fastSLO(false),
		Backend: backendFunc(func(ctx context.Context, _ cloud.InstanceType, _ *Batch) (float64, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return 0.01, nil
		}),
	})
	deadline := time.Now().Add(5 * time.Second)
	fired := false
	for i := 0; !fired; i++ {
		g.IngestAsync(g.nowMs(), 1, workload.ClassStandard)
		time.Sleep(50 * time.Microsecond) // ~50 stream ms at TimeScale 0.001
		fired = len(g.sloAlertEvents()) > 0
		if time.Now().After(deadline) {
			t.Fatal("no slo_alert event despite a wedged pool")
		}
	}
	s, _ := g.SLOStatus()
	if s.Firing == 0 {
		t.Error("alert on the trail but status reports nothing firing")
	}
	var found *slo.ObjectiveStatus
	for i := range s.Objectives {
		if s.Objectives[i].Name == "qos_attainment/standard" {
			found = &s.Objectives[i]
		}
	}
	if found == nil {
		t.Fatal("qos_attainment/standard objective missing")
	}
	if found.ErrorRate == 0 {
		t.Error("wedged pool reports a zero error rate")
	}
}

// TestGatewaySLOTriggerReachesController: with Trigger on, a firing page
// alert must arm the controller's "slo" capacity trigger — witnessed by the
// slo_breach event on the controller trail. The backend fails every
// sheddable request (an explicit shed, not an overload), so the SLO burns
// without wedging the pool — a wedge would keep the controller re-searching
// under its mutex and starve the forwarding path on slow builds.
func TestGatewaySLOTriggerReachesController(t *testing.T) {
	g := newStaticGateway(t, Options{
		Initial:    serving.Config{2, 2, 2},
		Bounds:     []int{8, 8, 8},
		Controller: &controller.Params{WindowMs: 2000, TickMs: 500, AdaptBudget: 4},
		Sim:        serving.SimOptions{Seed: 42, Queries: 400, RateScale: 0.4},
		SLO:        fastSLO(true),
		Backend: backendFunc(func(ctx context.Context, _ cloud.InstanceType, b *Batch) (float64, error) {
			b.Errs = make([]error, b.Requests)
			for i := range b.Errs {
				b.Errs[i] = context.DeadlineExceeded
			}
			return 0.01, nil
		}),
	})
	// Let the warmup search finish first: ObserveSLO shares the controller
	// mutex, so flooding before the incumbent exists just queues on it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := g.ControllerStatus()
		if !ok {
			t.Fatal("controller missing")
		}
		if len(st.Incumbent) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never initialized")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		g.IngestAsync(g.nowMs(), 1, workload.ClassSheddable)
		time.Sleep(50 * time.Microsecond)
		st, ok := g.ControllerStatus()
		if !ok {
			t.Fatal("controller missing")
		}
		breached := false
		for _, ev := range st.Events {
			if ev.Kind == "slo_breach" {
				breached = true
			}
		}
		if breached {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("firing page alert never armed the controller's slo trigger")
		}
	}
}

// TestGatewaySlowdownStretchesService: a chaos slowdown must actually slow
// the live instance — measured service time stretches by the factor — so
// stragglers degrade the same latency signal the SLO engine watches.
func TestGatewaySlowdownStretchesService(t *testing.T) {
	g := newStaticGateway(t, Options{
		Initial: serving.Config{1, 0, 0},
		Backend: backendFunc(func(ctx context.Context, _ cloud.InstanceType, _ *Batch) (float64, error) {
			return 100, nil
		}),
	})
	ctx := context.Background()
	resp, out, err := g.Ingest(ctx, 1, 1, workload.ClassStandard, nil)
	if err != nil || out != OutcomeQueued {
		t.Fatalf("baseline ingest: out=%v err=%v", out, err)
	}
	if resp.ServiceMs != 100 {
		t.Fatalf("baseline service %.1fms, want 100", resp.ServiceMs)
	}
	if err := g.Inject(chaos.CapacityEvent{
		AtMs: 1, Kind: chaos.KindSlowdown, Family: "c5a", Count: 1, Factor: 3, DurationMs: 1e9,
	}); err != nil {
		t.Fatal(err)
	}
	resp, out, err = g.Ingest(ctx, 2, 1, workload.ClassStandard, nil)
	if err != nil || out != OutcomeQueued {
		t.Fatalf("slowed ingest: out=%v err=%v", out, err)
	}
	if resp.ServiceMs != 300 {
		t.Fatalf("slowed service %.1fms, want 300 (3x stretch)", resp.ServiceMs)
	}
	sawSlowdown := false
	for _, ev := range g.Events() {
		if ev.Kind == "chaos_slowdown" {
			sawSlowdown = true
		}
	}
	if !sawSlowdown {
		t.Fatal("slowdown not witnessed on the audit trail")
	}
}

// TestInstanceSlowdownWindow covers the lever's expiry semantics directly.
func TestInstanceSlowdownWindow(t *testing.T) {
	inst := &instance{}
	if f := inst.slowdown(0); f != 1 {
		t.Fatalf("healthy instance slowdown = %g, want 1", f)
	}
	inst.setSlowdown(2.5, 100)
	if f := inst.slowdown(50); f != 2.5 {
		t.Fatalf("active window slowdown = %g, want 2.5", f)
	}
	if f := inst.slowdown(100); f != 1 {
		t.Fatalf("lapsed window slowdown = %g, want 1", f)
	}
	inst.setSlowdown(1, 1e9) // factor 1 is a no-op
	if f := inst.slowdown(0); f != 1 {
		t.Fatalf("factor-1 slowdown = %g, want 1", f)
	}
}
