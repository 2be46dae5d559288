package gateway

import (
	"fmt"
	"math"

	"ribbon/internal/obs"
	"ribbon/internal/slo"
)

// SLOOptions attaches a burn-rate SLO engine (internal/slo) to the data
// plane. The engine samples the gateway's measured per-tier outcomes —
// real request completions, sheds, and rejections, not simulator estimates —
// at stream-time intervals on the admit path, evaluates multi-window
// burn-rate rules per objective, and records every alert transition on the
// gateway's audit trail (mirrored to the structured log when one is
// configured). With Trigger set, firing page alerts are forwarded to the
// controller's ObserveSLO, arming the "slo" capacity trigger that answers
// degradation invisible to pool-membership accounting (stragglers,
// overload). The QoS-attainment and latency objectives are the spec's
// QoSPercentile; the not-shed objective is 0.9.
type SLOOptions struct {
	// SampleEveryMs is the stream-time sampling interval; 500 when 0.
	SampleEveryMs float64
	// Rules are the burn-rate alert rules shared by every objective;
	// slo.DefaultRules(60_000) when nil.
	Rules []slo.Rule
	// MinEvents is the per-window request floor before a rule may fire;
	// 20 when 0, negative disables the guard.
	MinEvents float64
	// Trigger forwards firing page alerts to the controller as the "slo"
	// capacity trigger. Requires Controller; ignored on a static pool.
	Trigger bool
}

// shedTarget is every tier's not-shed objective.
const shedTarget = 0.9

// initSLO builds the engine over the gateway's per-tier counters. Called
// once from New, before any traffic.
func (g *Gateway) initSLO(o *SLOOptions) error {
	if o.SampleEveryMs < 0 {
		return fmt.Errorf("gateway: negative slo sample interval")
	}
	every := o.SampleEveryMs
	if every == 0 {
		every = 500
	}
	rules := o.Rules
	if rules == nil {
		rules = slo.DefaultRules(60_000)
	}
	minEvents := o.MinEvents
	if minEvents == 0 {
		minEvents = 20
	}
	eng, err := slo.New(slo.Config{
		MinEvents: minEvents,
		Rules:     rules,
		Trail:     g.m.trail,
	})
	if err != nil {
		return err
	}
	// Three objectives per criticality tier, all ratio-form over the
	// cumulative tier counters (sampled under the engine lock; the counters
	// themselves are atomics the hot path bumps):
	//   qos_attainment — completions within the latency target over every
	//                    offered request (shed and rejected count against).
	//   latency        — completions within the latency target over
	//                    completions only: the pure p-quantile latency SLI.
	//   shed_rate      — requests not dropped by the shedding policy.
	for r := range g.m.tiers {
		t := &g.m.tiers[r]
		tier := tierNames[r]
		err := eng.Add(slo.Indicator{
			Name:   "qos_attainment/" + tier,
			Tier:   tier,
			Kind:   "qos_attainment",
			Target: g.spec.QoSPercentile,
			Sample: func() (float64, float64) {
				return float64(t.qosMet.Value()),
					float64(t.completed.Value() + t.shed.Value() + t.rejected.Value())
			},
		})
		if err != nil {
			return err
		}
		err = eng.Add(slo.Indicator{
			Name:   "latency/" + tier,
			Tier:   tier,
			Kind:   "latency",
			Target: g.spec.QoSPercentile,
			Sample: func() (float64, float64) {
				return float64(t.qosMet.Value()), float64(t.completed.Value())
			},
		})
		if err != nil {
			return err
		}
		err = eng.Add(slo.Indicator{
			Name:   "shed_rate/" + tier,
			Tier:   tier,
			Kind:   "shed_rate",
			Target: shedTarget,
			Sample: func() (float64, float64) {
				offered := t.completed.Value() + t.shed.Value() + t.rejected.Value()
				return float64(offered - t.shed.Value()), float64(offered)
			},
		})
		if err != nil {
			return err
		}
	}
	g.slo = eng
	g.sloTrigger = o.Trigger
	g.sloEveryMs = every
	g.sloNextBits.Store(math.Float64bits(every))
	tr := g.m.reg.CounterVec("ribbon_gateway_slo_transitions_total",
		"SLO alert transitions by state.", "state")
	g.m.sloFiring = tr.With(slo.StateFiring)
	g.m.sloResolved = tr.With(slo.StateResolved)
	return nil
}

// maybeSampleSLO runs one engine observation when the sampling interval has
// elapsed in stream time. The fast path — interval not due — is a single
// atomic load; one admitter wins the CAS and pays for the sample, so
// concurrent floods never double-observe.
func (g *Gateway) maybeSampleSLO(nowMs float64) {
	for {
		bits := g.sloNextBits.Load()
		if nowMs < math.Float64frombits(bits) {
			return
		}
		next := math.Float64frombits(bits) + g.sloEveryMs
		for next <= nowMs {
			next += g.sloEveryMs
		}
		if g.sloNextBits.CompareAndSwap(bits, math.Float64bits(next)) {
			g.handleSLOTransitions(g.slo.Observe(nowMs))
			return
		}
	}
}

// handleSLOTransitions counts alert transitions (the engine already put
// them on the audit trail and the structured log) and, when armed, forwards
// firing page alerts to the controller's "slo" capacity trigger.
func (g *Gateway) handleSLOTransitions(alerts []slo.Alert) {
	for _, a := range alerts {
		switch a.State {
		case slo.StateFiring:
			g.m.sloFiring.Inc()
		case slo.StateResolved:
			g.m.sloResolved.Inc()
		}
		if g.sloTrigger && g.ctrl != nil {
			g.ctrl.ObserveSLO(a)
		}
	}
}

// SLOStatus returns the SLO engine's point-in-time view; ok is false when
// the engine is not configured.
func (g *Gateway) SLOStatus() (slo.Status, bool) {
	if g.slo == nil {
		return slo.Status{}, false
	}
	return g.slo.Status(), true
}

// slowFamily applies a straggler slowdown to up to count live instances of
// the family: their batches stretch by factor until untilMs of stream time.
// Returns how many instances were actually slowed; a later event overwrites
// an earlier window on the same instance.
func (g *Gateway) slowFamily(family string, count int, factor, untilMs float64) int {
	slot := g.familySlot(family)
	if slot < 0 || count <= 0 || factor <= 1 {
		return 0
	}
	p := g.pool.Load()
	if p == nil {
		return 0
	}
	applied := 0
	for _, inst := range p.instances {
		if applied >= count {
			break
		}
		if inst.slot != slot || inst.retiring.Load() {
			continue
		}
		inst.setSlowdown(factor, untilMs)
		applied++
	}
	return applied
}

// sloAlertEvents is a tiny helper for tests: the slo_alert events currently
// on the gateway trail.
func (g *Gateway) sloAlertEvents() []obs.Event {
	var out []obs.Event
	for _, ev := range g.m.trail.Events() {
		if ev.Kind == "slo_alert" {
			out = append(out, ev)
		}
	}
	return out
}
