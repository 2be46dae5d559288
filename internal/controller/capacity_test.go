package controller

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ribbon/internal/chaos"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// initialIncumbent computes the deterministic incumbent the shared test
// config converges on, so chaos schedules can target families the pool
// actually deploys.
func initialIncumbent(t *testing.T) serving.Config {
	t.Helper()
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.initialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c.Snapshot().Incumbent
}

// richestSlot returns the spec slot (and its family) holding the most
// incumbent instances.
func richestSlot(t *testing.T, inc serving.Config) (int, string) {
	t.Helper()
	best := 0
	for i := range inc {
		if inc[i] > inc[best] {
			best = i
		}
	}
	if inc[best] == 0 {
		t.Fatalf("incumbent %v deploys nothing", inc)
	}
	return best, testConfig().Spec.Types[best].Family
}

func mustRunChaos(t *testing.T, cfg Config, phases []workload.Phase) Status {
	t.Helper()
	return mustRun(t, cfg, phases)
}

// TestObserveCapacityReportsDegradedPool is the pool-health regression test:
// before this input existed the controller assumed decided pool == existing
// pool, so a failed instance was invisible until the next load shift. Now a
// capacity observation must immediately surface in the snapshot as a
// degraded LiveConfig while the decided incumbent stays put.
func TestObserveCapacityReportsDegradedPool(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.initialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	if before.Degraded {
		t.Fatal("fresh controller reports degraded")
	}
	if before.LiveConfig.Key() != before.Incumbent.Key() {
		t.Fatalf("live %v != incumbent %v before any event", before.LiveConfig, before.Incumbent)
	}
	slot, fam := richestSlot(t, before.Incumbent)

	c.ObserveCapacity(chaos.CapacityEvent{AtMs: 100, Kind: chaos.KindFailure, Family: fam, Count: 1})
	st := c.Snapshot()
	if !st.Degraded {
		t.Fatal("failure did not mark the pool degraded")
	}
	if st.LiveConfig[slot] != before.Incumbent[slot]-1 {
		t.Fatalf("live slot %d = %d, want %d", slot, st.LiveConfig[slot], before.Incumbent[slot]-1)
	}
	if st.Incumbent.Key() != before.Incumbent.Key() {
		t.Fatalf("decided incumbent changed on observation: %v -> %v", before.Incumbent, st.Incumbent)
	}
	if st.CapacityEvents != 1 {
		t.Fatalf("CapacityEvents = %d, want 1", st.CapacityEvents)
	}

	// Losses clamp to deployed capacity, and a restore heals the ledger.
	c.ObserveCapacity(chaos.CapacityEvent{AtMs: 200, Kind: chaos.KindFailure, Family: fam, Count: 999})
	if st = c.Snapshot(); st.LiveConfig[slot] != 0 {
		t.Fatalf("overkill did not clamp: live slot %d = %d", slot, st.LiveConfig[slot])
	}
	c.ObserveCapacity(chaos.CapacityEvent{AtMs: 300, Kind: chaos.KindRestore, Family: fam, Count: 999})
	if st = c.Snapshot(); st.Degraded || st.LiveConfig.Key() != before.Incumbent.Key() {
		t.Fatalf("restore did not heal: degraded=%v live=%v", st.Degraded, st.LiveConfig)
	}
	// Events for families outside the spec are witnessed but change nothing.
	c.ObserveCapacity(chaos.CapacityEvent{AtMs: 400, Kind: chaos.KindFailure, Family: "p4d", Count: 5})
	if st = c.Snapshot(); st.Degraded {
		t.Fatal("unknown-family failure degraded the pool")
	}
}

// TestHardFailureTriggersEmergencyResearch: a mid-stream hard failure must
// bypass the dwell hysteresis — the response lands on the next tick, not
// DwellMs later — and leave the pool whole and QoS-satisfying.
func TestHardFailureTriggersEmergencyResearch(t *testing.T) {
	inc := initialIncumbent(t)
	_, fam := richestSlot(t, inc)
	cfg := testConfig()
	cfg.Chaos = &chaos.Schedule{Events: []chaos.CapacityEvent{
		{AtMs: 2500, Kind: chaos.KindFailure, Family: fam, Count: 1},
	}}
	st := mustRunChaos(t, cfg, []workload.Phase{{Queries: 6000, RateScale: 1.0}})
	if len(st.Reconfigurations) != 1 {
		t.Fatalf("got %d reconfigurations, want 1: %+v", len(st.Reconfigurations), st.Reconfigurations)
	}
	rec := st.Reconfigurations[0]
	if rec.Trigger != "emergency" {
		t.Fatalf("trigger %q, want emergency", rec.Trigger)
	}
	// Next tick after the 2500ms failure at a 200ms cadence is 2600ms: the
	// response must not wait out the 1000ms dwell.
	if rec.AtMs != 2600 {
		t.Fatalf("emergency response at %.0fms, want the 2600ms tick", rec.AtMs)
	}
	if rec.From.Total() != inc.Total()-1 {
		t.Fatalf("decision started from %v, want incumbent %v minus the casualty", rec.From, inc)
	}
	if st.Degraded {
		t.Fatal("pool still degraded after the emergency response")
	}
	if !st.IncumbentMeetsQoS {
		t.Fatalf("final incumbent %v violates QoS", st.Incumbent)
	}
	if st.CapacityEvents != 1 {
		t.Fatalf("CapacityEvents = %d, want 1", st.CapacityEvents)
	}
	if st.AccruedCost <= 0 {
		t.Fatalf("accrued cost %g, want positive", st.AccruedCost)
	}
}

// TestRevocationTriggersGracefulDrain: a spot revocation warning arms the
// lower-urgency drain path, distinguishable in the flight record.
func TestRevocationTriggersGracefulDrain(t *testing.T) {
	inc := initialIncumbent(t)
	_, fam := richestSlot(t, inc)
	cfg := testConfig()
	cfg.Chaos = &chaos.Schedule{Events: []chaos.CapacityEvent{
		{AtMs: 2500, Kind: chaos.KindRevocation, Family: fam, Count: 1, WarningMs: 2000},
	}}
	st := mustRunChaos(t, cfg, []workload.Phase{{Queries: 6000, RateScale: 1.0}})
	if len(st.Reconfigurations) != 1 {
		t.Fatalf("got %d reconfigurations, want 1: %+v", len(st.Reconfigurations), st.Reconfigurations)
	}
	rec := st.Reconfigurations[0]
	if rec.Trigger != "drain" {
		t.Fatalf("trigger %q, want drain", rec.Trigger)
	}
	// The replacement decision lands inside the 2000ms warning window.
	if rec.AtMs >= 2500+2000 {
		t.Fatalf("drain response at %.0fms missed the warning window ending at 4500ms", rec.AtMs)
	}
	if st.Degraded || !st.IncumbentMeetsQoS {
		t.Fatalf("degraded=%v meets_qos=%v after drain response", st.Degraded, st.IncumbentMeetsQoS)
	}
}

// TestStormConsolidatesIntoOneResponse: casualties landing inside one tick —
// or inside the emergency cooldown — are answered by consolidated
// re-searches, not one per event.
func TestStormConsolidatesIntoOneResponse(t *testing.T) {
	inc := initialIncumbent(t)
	_, fam := richestSlot(t, inc)
	cfg := testConfig()
	cfg.Chaos = &chaos.Schedule{Events: []chaos.CapacityEvent{
		{AtMs: 2500, Kind: chaos.KindFailure, Family: fam, Count: 1},
		{AtMs: 2520, Kind: chaos.KindFailure, Family: fam, Count: 1},
		{AtMs: 2540, Kind: chaos.KindFailure, Family: fam, Count: 1},
	}}
	st := mustRunChaos(t, cfg, []workload.Phase{{Queries: 6000, RateScale: 1.0}})
	if len(st.Reconfigurations) != 1 {
		t.Fatalf("burst of 3 failures caused %d responses, want 1 consolidated: %+v",
			len(st.Reconfigurations), st.Reconfigurations)
	}
	if st.CapacityEvents != 3 {
		t.Fatalf("CapacityEvents = %d, want 3", st.CapacityEvents)
	}
	if st.Degraded {
		t.Fatal("pool still degraded after consolidated response")
	}
}

// TestEmergencyCooldownGatesSecondResponse: a second casualty during the
// cooldown accumulates silently and is handled the moment the gate lifts.
func TestEmergencyCooldownGatesSecondResponse(t *testing.T) {
	inc := initialIncumbent(t)
	_, fam := richestSlot(t, inc)
	cfg := testConfig()
	cfg.Params.EmergencyCooldownMs = 3000
	cfg.Chaos = &chaos.Schedule{Events: []chaos.CapacityEvent{
		{AtMs: 2500, Kind: chaos.KindFailure, Family: fam, Count: 1},
		{AtMs: 3500, Kind: chaos.KindFailure, Family: fam, Count: 1},
	}}
	st := mustRunChaos(t, cfg, []workload.Phase{{Queries: 8000, RateScale: 1.0}})
	if len(st.Reconfigurations) != 2 {
		t.Fatalf("got %d reconfigurations, want 2: %+v", len(st.Reconfigurations), st.Reconfigurations)
	}
	first, second := st.Reconfigurations[0], st.Reconfigurations[1]
	if first.AtMs != 2600 || first.Trigger != "emergency" {
		t.Fatalf("first response %+v, want emergency at 2600ms", first)
	}
	// Gate lifts at 2600+3000: the 3500ms casualty waits until then.
	if second.AtMs < 5600 {
		t.Fatalf("second response at %.0fms fired inside the %.0fms cooldown", second.AtMs, 5600.0)
	}
	if second.AtMs > 5600+2*cfg.Params.TickMs {
		t.Fatalf("second response at %.0fms, want promptly after the gate lifts at 5600ms", second.AtMs)
	}
}

// TestSpotPriceMoveTriggersReoptimization: with UseSpot, a spot-market move
// past PriceRelThreshold triggers a price-aware re-search; without UseSpot
// the same schedule is witnessed but never acted on.
func TestSpotPriceMoveTriggersReoptimization(t *testing.T) {
	inc := initialIncumbent(t)
	_, fam := richestSlot(t, inc)
	sched := &chaos.Schedule{Events: []chaos.CapacityEvent{
		{AtMs: 2500, Kind: chaos.KindPrice, Family: fam, Factor: 2.2},
	}}

	cfg := testConfig()
	cfg.UseSpot = true
	cfg.Chaos = sched.Clone()
	st := mustRunChaos(t, cfg, []workload.Phase{{Queries: 6000, RateScale: 1.0}})
	if len(st.Reconfigurations) != 1 {
		t.Fatalf("got %d reconfigurations, want 1: %+v", len(st.Reconfigurations), st.Reconfigurations)
	}
	rec := st.Reconfigurations[0]
	if rec.Trigger != "price" {
		t.Fatalf("trigger %q, want price", rec.Trigger)
	}
	if rec.AtMs != 2600 {
		t.Fatalf("price response at %.0fms, want the 2600ms tick", rec.AtMs)
	}

	onDemand := testConfig()
	onDemand.Chaos = sched.Clone()
	st = mustRunChaos(t, onDemand, []workload.Phase{{Queries: 6000, RateScale: 1.0}})
	if len(st.Reconfigurations) != 0 {
		t.Fatalf("on-demand pool reacted to a spot price move: %+v", st.Reconfigurations)
	}
	if st.CapacityEvents != 1 {
		t.Fatalf("price event not witnessed: CapacityEvents = %d", st.CapacityEvents)
	}
}

// TestLoadShiftPricesLivePoolAtCurrentRates: a spot move below
// PriceRelThreshold arms no trigger, but the next load shift must still
// price the pool it starts from at today's rates, the ones its decision
// compares against, not at the rates of the previous decision.
func TestLoadShiftPricesLivePoolAtCurrentRates(t *testing.T) {
	cfg := testConfig()
	cfg.UseSpot = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.initialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	inc := c.Snapshot().Incumbent
	_, fam := richestSlot(t, inc)
	const factor = 1.1 // a 10% move, under the 15% price trigger
	cfg.Chaos = &chaos.Schedule{Events: []chaos.CapacityEvent{
		{AtMs: 2500, Kind: chaos.KindPrice, Family: fam, Factor: factor},
	}}
	st := mustRunChaos(t, cfg, []workload.Phase{{Queries: 6000, RateScale: 1.0}, {Queries: 8000, RateScale: 2.0}})
	if len(st.Reconfigurations) != 1 {
		t.Fatalf("got %d reconfigurations, want the load shift only: %+v", len(st.Reconfigurations), st.Reconfigurations)
	}
	rec := st.Reconfigurations[0]
	if rec.Trigger != "" {
		t.Fatalf("trigger %q, want a load shift", rec.Trigger)
	}
	if rec.From.Key() != inc.Key() {
		t.Fatalf("shift started from %v, want the undegraded incumbent %v", rec.From, inc)
	}
	want := 0.0
	for i, it := range cfg.Spec.Types {
		f := 1.0
		if it.Family == fam {
			f = factor
		}
		want += float64(inc[i]) * it.SpotPrice(f)
	}
	if math.Abs(rec.FromCostPerHour-want) > 1e-9 {
		t.Fatalf("FromCostPerHour = %.5f, want %.5f: %v at the current spot rates (%s x%g)",
			rec.FromCostPerHour, want, inc, fam, factor)
	}
}

// TestSpotPoolRunsCheaperThanOnDemand: at stable prices the spot-priced pool
// accrues strictly less spend than the identical on-demand run — the
// headline economic claim chaos serving is meant to bank.
func TestSpotPoolRunsCheaperThanOnDemand(t *testing.T) {
	phases := []workload.Phase{{Queries: 6000, RateScale: 1.0}}
	onDemand := mustRunChaos(t, testConfig(), phases)
	cfg := testConfig()
	cfg.UseSpot = true
	spot := mustRunChaos(t, cfg, phases)
	if onDemand.AccruedCost <= 0 || spot.AccruedCost <= 0 {
		t.Fatalf("accrued costs not positive: spot %g on-demand %g", spot.AccruedCost, onDemand.AccruedCost)
	}
	if spot.AccruedCost >= onDemand.AccruedCost {
		t.Fatalf("spot run cost $%.4f, on-demand $%.4f; spot must be cheaper",
			spot.AccruedCost, onDemand.AccruedCost)
	}
	if !spot.IncumbentMeetsQoS {
		t.Fatal("spot-priced incumbent violates QoS")
	}
}

// TestChaosReplayDeterministic is the acceptance bar: a generated revocation
// storm replayed through the controller twice yields byte-identical
// statuses — decision history, audit trail, accrued cost, everything.
func TestChaosReplayDeterministic(t *testing.T) {
	storm := chaos.GenerateStorm(chaos.StormOptions{
		Seed:                 11,
		HorizonMs:            7000,
		Families:             []string{"g4dn", "c5", "r5n"},
		RevocationMultiplier: 4000,
		WarningMs:            1500,
		FailuresPerHour:      900,
		SlowdownsPerHour:     900,
		PriceStepMs:          2000,
		PriceVolatility:      0.3,
		RestoreAfterMs:       1500,
	})
	run := func() Status {
		cfg := testConfig()
		cfg.UseSpot = true
		cfg.Chaos = storm.Clone()
		return mustRunChaos(t, cfg, []workload.Phase{{Queries: 6000, RateScale: 1.0}})
	}
	a, b := run(), run()
	if a.CapacityEvents == 0 {
		t.Fatal("storm produced no capacity events; determinism test is vacuous")
	}
	as, bs := fmt.Sprintf("%#v", a), fmt.Sprintf("%#v", b)
	if as != bs {
		t.Fatalf("storm replay not byte-stable:\n%s\nvs\n%s", as, bs)
	}
}

func TestChaosConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Chaos = &chaos.Schedule{Events: []chaos.CapacityEvent{
		{AtMs: -5, Kind: chaos.KindFailure, Family: "g4dn", Count: 1},
	}}
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid chaos schedule accepted")
	}
	cfg = testConfig()
	cfg.Params.PriceRelThreshold = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative price threshold accepted")
	}
	// The controller clones its schedule: caller mutation after New must not
	// leak into the replay.
	cfg = testConfig()
	sched := &chaos.Schedule{Events: []chaos.CapacityEvent{
		{AtMs: 2500, Kind: chaos.KindFailure, Family: "g4dn", Count: 1},
	}}
	cfg.Chaos = sched
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched.Events[0].AtMs = 1e12
	stream := workload.Generate(cfg.Spec.Model, workload.Options{Queries: 6000, Seed: 7})
	st, err := c.Run(context.Background(), stream)
	if err != nil {
		t.Fatal(err)
	}
	if st.CapacityEvents != 1 {
		t.Fatalf("caller mutation leaked into the cloned schedule: CapacityEvents = %d", st.CapacityEvents)
	}
}
