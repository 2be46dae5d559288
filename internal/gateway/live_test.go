package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"ribbon/internal/controller"
	"ribbon/internal/dispatch"
	"ribbon/internal/models"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// The live-adaptation rig floods CANDLE (40 ms QoS — enough headroom that
// wall-clock timer jitter at 5x time compression does not drown the signal)
// over c5a/m5/t3, with a 2 s estimator window, 200 ms ticks, and a 1 s dwell.
// The flood is a seeded 0.5x phase followed by a 1.0x phase — a 2x relative
// shift — class-mixed critical-heavy (3:1:1) so that under overload even the
// top-rank critical tier exceeds the provisioned pool's capacity and
// visibly degrades until the controller re-provisions.
const (
	liveSeed = 7
	liveBase = 0.4 // provisioned RateScale; the overload phase doubles it
)

func liveSpec() serving.PoolSpec {
	return serving.MustNewPoolSpec(models.MustLookup("CANDLE"), 0.99, "c5a", "m5", "t3")
}

func liveStream() *workload.Stream {
	m := models.MustLookup("CANDLE")
	phases := []workload.Phase{{Queries: 2000, RateScale: liveBase}, {Queries: 6500, RateScale: 2 * liveBase}}
	st := workload.GenerateSchedule(m, liveSeed, workload.HeavyTailLogNormalBatch, phases)
	st.AssignClasses(liveSeed, workload.ClassMix{Critical: 3, Standard: 1, Sheddable: 1})
	return st
}

func liveOptions(backend Backend, timeScale float64) Options {
	return Options{
		Spec:    liveSpec(),
		Backend: backend,
		// Criticality gives the critical tier the top rank of the shared
		// queue, so it recovers on the re-provisioned pool while standard
		// and sheddable work still waits behind it.
		Dispatch: dispatch.Spec{
			Kind: dispatch.KindCriticality,
		},
		Sim:           serving.SimOptions{Seed: 42, Queries: 2000, RateScale: liveBase},
		Bounds:        []int{8, 8, 8},
		InitialBudget: 20,
		Controller: &controller.Params{
			WindowMs:     2000,
			TickMs:       200,
			RelThreshold: 0.3,
			DwellMs:      1000,
			AdaptBudget:  12,
		},
		Seed:      42,
		TimeScale: timeScale,
		WarmupMs:  50,
	}
}

// floodResult is everything one live flood run leaves behind.
type floodResult struct {
	status   controller.Status
	final    Snapshot
	onset    Snapshot // at the first overload-phase arrival
	apply    Snapshot // at the first applied reconfiguration
	settled  Snapshot // shortly after apply: overload backlog drained, new instances warm
	gotApply bool
}

// runLiveFlood replays the stream through a live gateway as an open-loop
// paced flood (timeScale > 0) or an unpaced replay (pace 0: send as fast as
// the plane admits), draining the controller before reporting.
func runLiveFlood(t *testing.T, g *Gateway, stream *workload.Stream, shiftMs, pace float64) floodResult {
	t.Helper()
	var res floodResult

	// Watch for the first applied reconfiguration so the pre/post QoS
	// windows can be separated. Polling granularity (2 ms wall) is far
	// below the dwell and window times at any scale used here.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for watchCtx.Err() == nil {
			st, _ := g.ControllerStatus()
			for _, rec := range st.Reconfigurations {
				if rec.Applied {
					res.apply = g.Metrics()
					res.gotApply = true
					// Give the new pool one settle beat — the backlog the
					// undersized pool accumulated drains through the enlarged
					// one, and added instances finish warming — before the
					// restored-QoS window starts.
					select {
					case <-watchCtx.Done():
					case <-time.After(300 * time.Millisecond):
					}
					res.settled = g.Metrics()
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	ch := make(chan workload.Query, 4096)
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		sawShift := false
		for q := range ch {
			if !sawShift && q.ArrivalMs >= shiftMs {
				sawShift = true
				res.onset = g.Metrics()
			}
			g.IngestAsync(q.ArrivalMs, q.Batch, q.Class)
		}
	}()
	if err := stream.EmitScaled(context.Background(), ch, pace); err != nil {
		t.Fatalf("emit: %v", err)
	}
	close(ch)
	ingest.Wait()

	// Quiesce the data plane: every admitted request either completes or
	// fails before the final snapshot is read.
	deadline := time.Now().Add(20 * time.Second)
	for {
		s := g.Metrics()
		if s.Completed+s.Failed >= s.Accepted && s.QueueDepth == 0 && s.Inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("data plane did not quiesce: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	g.Drain()
	stopWatch()
	watch.Wait()

	st, ok := g.ControllerStatus()
	if !ok {
		t.Fatal("controller status unavailable on an adaptive gateway")
	}
	res.status = st
	res.final = g.Metrics()
	return res
}

// windowRsat is the QoS satisfaction rate of one tier between two snapshots,
// shed and rejected requests counting as violations.
func windowRsat(a, b Snapshot, rank int) float64 {
	met := b.Tiers[rank].QoSMet - a.Tiers[rank].QoSMet
	total := (b.Tiers[rank].Completed + b.Tiers[rank].Shed + b.Tiers[rank].Rejected) -
		(a.Tiers[rank].Completed + a.Tiers[rank].Shed + a.Tiers[rank].Rejected)
	if total == 0 {
		return 1
	}
	return float64(met) / float64(total)
}

// TestGatewayLiveAdaptation is the end-to-end acceptance test for the serving
// data plane: a seeded flood ramps from 1x to 2x through the gateway, the
// controller confirms the shift from the measured arrivals alone, applies a
// reconfiguration to the live pool within the dwell window, and the critical
// tier's QoS satisfaction — degraded during the overload — recovers on the
// re-provisioned pool. The decision trace must replay byte-identically.
func TestGatewayLiveAdaptation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live flood")
	}
	const timeScale = 0.3
	stream := liveStream()
	shiftMs := stream.Queries[2000].ArrivalMs

	spec := liveSpec()
	g, err := New(context.Background(), liveOptions(NewSimBackend(spec.Model, timeScale, 99), timeScale))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	res := runLiveFlood(t, g, stream, shiftMs, timeScale)

	if res.final.FeedDropped != 0 {
		t.Fatalf("dropped %d controller feed samples; determinism void", res.final.FeedDropped)
	}
	if res.status.Arrivals != len(stream.Queries) {
		t.Fatalf("controller saw %d arrivals, want %d", res.status.Arrivals, len(stream.Queries))
	}

	// The controller must have confirmed the shift and applied a scale-up.
	var applied *controller.Reconfiguration
	for i := range res.status.Reconfigurations {
		if res.status.Reconfigurations[i].Applied {
			applied = &res.status.Reconfigurations[i]
			break
		}
	}
	if applied == nil {
		t.Fatalf("no applied reconfiguration in trace: %+v", res.status.Reconfigurations)
	}
	if applied.NewScale < 1.5*liveBase || applied.NewScale > 2.6*liveBase {
		t.Fatalf("re-planned for scale %g, want ~%g", applied.NewScale, 2*liveBase)
	}
	p := liveOptions(nil, timeScale).Controller
	if applied.AtMs < shiftMs+p.DwellMs {
		t.Fatalf("reconfigured at %.0f ms, before dwell (shift at %.0f ms)", applied.AtMs, shiftMs)
	}
	if deadline := shiftMs + p.WindowMs + p.DwellMs + 3*p.TickMs; applied.AtMs > deadline {
		t.Fatalf("reconfigured at %.0f ms, after the dwell-window deadline %.0f ms", applied.AtMs, deadline)
	}

	// The decision must be live on the data plane: the deployed pool is the
	// trace's last applied target.
	last := applied
	for i := range res.status.Reconfigurations {
		if res.status.Reconfigurations[i].Applied {
			last = &res.status.Reconfigurations[i]
		}
	}
	if got := g.Config().Key(); got != last.To.Key() {
		t.Fatalf("live pool %s != last applied configuration %s", got, last.To.Key())
	}

	// Critical-tier QoS: degraded between overload onset and the applied
	// reconfiguration, restored afterwards.
	if !res.gotApply {
		t.Fatal("watcher never observed the applied reconfiguration")
	}
	const critical = 2 // dispatch rank
	pre := windowRsat(res.onset, res.apply, critical)
	post := windowRsat(res.settled, res.final, critical)
	t.Logf("critical-tier Rsat: overload %.3f -> post-reconfig %.3f (pool %s, critical p99 %.1f ms)",
		pre, post, g.Config().Key(), res.final.Tiers[critical].P99Ms)
	if pre > 0.9 {
		t.Fatalf("critical tier never degraded under 2x overload (Rsat %.3f); the test is not exercising adaptation", pre)
	}
	if post < pre+0.15 {
		t.Fatalf("critical-tier Rsat not restored: overload %.3f, post-reconfig %.3f", pre, post)
	}
}

// TestGatewayDecisionTraceReplays pins the byte-stability guarantee: the
// decision trace of a paced live flood equals — as marshalled bytes — the
// trace of an unpaced replay of the same seeded stream through a fresh
// gateway. Wall-clock pacing, backend sleeps, and data-plane jitter must not
// leak into control decisions.
func TestGatewayDecisionTraceReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live flood")
	}
	stream := liveStream()
	shiftMs := stream.Queries[2000].ArrivalMs

	trace := func(backend Backend, timeScale, pace float64) []byte {
		g, err := New(context.Background(), liveOptions(backend, timeScale))
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		res := runLiveFlood(t, g, stream, shiftMs, pace)
		if res.final.FeedDropped != 0 {
			t.Fatalf("dropped %d feed samples; determinism void", res.final.FeedDropped)
		}
		b, err := json.Marshal(res.status.Reconfigurations)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	spec := liveSpec()
	paced := trace(NewSimBackend(spec.Model, 0.05, 99), 0.05, 0.05)
	replay := trace(nullBackend{}, 1, 0)

	if !bytes.Equal(paced, replay) {
		t.Fatalf("decision trace not byte-stable:\npaced:  %s\nreplay: %s", paced, replay)
	}
	var recs []controller.Reconfiguration
	if err := json.Unmarshal(paced, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty decision trace")
	}
}
