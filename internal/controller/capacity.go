package controller

import (
	"fmt"
	"math"

	"ribbon/internal/chaos"
	"ribbon/internal/cloud"
	"ribbon/internal/obs"
	"ribbon/internal/serving"
)

const msPerHour = 3600000.0

// ObserveCapacity feeds one capacity event into the controller from a live
// driver (the gateway's pool-health input). Revocations and failures mark
// incumbent instances as gone — the snapshot immediately reports the
// degraded LiveConfig — and arm the matching response, which fires at the
// next tick on the control goroutine. Safe for concurrent use with
// Run/RunLive.
func (c *Controller) ObserveCapacity(ev chaos.CapacityEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeCapacityLocked(ev)
}

// ingestChaosLocked replays the configured schedule up to nowMs. Events are
// applied in canonical order at tick boundaries, so a replay of the same
// (seed, stream, schedule) triple reproduces the same decision history.
func (c *Controller) ingestChaosLocked(nowMs float64) {
	evs := c.cfg.Chaos.Events
	for c.chaosIdx < len(evs) && evs[c.chaosIdx].AtMs <= nowMs {
		c.observeCapacityLocked(evs[c.chaosIdx])
		c.chaosIdx++
	}
}

func (c *Controller) observeCapacityLocked(ev chaos.CapacityEvent) {
	c.accrueLocked(ev.AtMs)
	c.stat.CapacityEvents++
	slot := -1
	for i, t := range c.cfg.Spec.Types {
		if t.Family == ev.Family {
			slot = i
			break
		}
	}
	switch ev.Kind {
	case chaos.KindRevocation, chaos.KindFailure:
		if slot < 0 || !c.hasIncumbent {
			return
		}
		take := ev.Count
		if have := c.incumbent.Config[slot] - c.lost[slot]; take > have {
			take = have
		}
		if take <= 0 {
			return
		}
		c.lost[slot] += take
		kind, msg := obs.EventKind("capacity_warning"), "spot revocation warning"
		if ev.Kind == chaos.KindFailure {
			kind, msg = obs.EventKind("capacity_failure"), "instance hard failure"
			c.pendingEmergency = true
		} else {
			c.pendingDrain = true
		}
		c.refreshLiveLocked()
		c.trail.Record(ev.AtMs, kind, fmt.Sprintf("%s: %d %s", msg, take, ev.Family),
			obs.F("family", ev.Family),
			obs.F("count", take),
			obs.F("effective_ms", ev.EffectiveMs()),
			obs.F("live", c.stat.LiveConfig.Key()),
		)
	case chaos.KindRestore:
		if slot < 0 {
			return
		}
		back := ev.Count
		if back > c.lost[slot] {
			back = c.lost[slot]
		}
		if back <= 0 {
			return
		}
		c.lost[slot] -= back
		c.refreshLiveLocked()
		c.trail.Record(ev.AtMs, "capacity_restored", fmt.Sprintf("capacity restored: %d %s", back, ev.Family),
			obs.F("family", ev.Family),
			obs.F("count", back),
			obs.F("live", c.stat.LiveConfig.Key()),
		)
	case chaos.KindSlowdown:
		// Stragglers degrade service speed, not pool membership, so no
		// trigger arms here — the ledger makes every later evaluation see
		// the slowed family, and the SLO engine (when configured) turns
		// the resulting attainment drop into the "slo" trigger.
		c.observeSlowdownLocked(ev)
		c.trail.Record(ev.AtMs, "capacity_slowdown", fmt.Sprintf("straggler injection: %d %s x%.3g",
			ev.Count, ev.Family, ev.Factor),
			obs.F("family", ev.Family),
			obs.F("count", ev.Count),
			obs.F("factor", ev.Factor),
			obs.F("until_ms", ev.AtMs+ev.DurationMs),
		)
	case chaos.KindPrice:
		c.market[ev.Family] = ev.Factor
		if !c.cfg.UseSpot || slot < 0 {
			return
		}
		last := c.lastMarket[ev.Family]
		if last == 0 {
			last = 1
		}
		rel := math.Abs(ev.Factor/last - 1)
		if rel >= c.cfg.Params.PriceRelThreshold {
			c.pendingPrice = true
			c.trail.Record(ev.AtMs, "price_move", fmt.Sprintf("spot market moved %.1f%% on %s",
				rel*100, ev.Family),
				obs.F("family", ev.Family),
				obs.F("factor", ev.Factor),
				obs.F("last_factor", last),
			)
		}
	}
}

// refreshLiveLocked re-derives the published live view from the degradation
// ledger.
func (c *Controller) refreshLiveLocked() {
	c.stat.LiveConfig = c.liveConfigLocked()
	c.stat.Degraded = false
	for _, n := range c.lost {
		if n > 0 {
			c.stat.Degraded = true
			break
		}
	}
}

// liveConfigLocked is the incumbent minus lost capacity — the pool that
// actually exists right now.
func (c *Controller) liveConfigLocked() serving.Config {
	live := c.incumbent.Config.Clone()
	for i := range live {
		live[i] -= c.lost[i]
		if live[i] < 0 {
			live[i] = 0
		}
	}
	return live
}

// marketFactorLocked is the last observed spot-market factor for a family,
// 1.0 before any price event.
func (c *Controller) marketFactorLocked(family string) float64 {
	if f, ok := c.market[family]; ok {
		return f
	}
	return 1
}

// pricedSpecLocked returns the spec every search and migration estimate
// prices against: the configured spec verbatim for on-demand pools, or a
// copy with each type repriced to its current spot-market rate when UseSpot.
func (c *Controller) pricedSpecLocked() serving.PoolSpec {
	if !c.cfg.UseSpot {
		return c.cfg.Spec
	}
	spec := c.cfg.Spec
	spec.Types = append([]cloud.InstanceType(nil), spec.Types...)
	for i, t := range spec.Types {
		spec.Types[i] = t.SpotPriced(c.marketFactorLocked(t.Family))
	}
	return spec
}

// liveCostPerHourLocked prices the capacity that exists right now at the
// rates actually being paid.
func (c *Controller) liveCostPerHourLocked() float64 {
	if !c.hasIncumbent {
		return 0
	}
	total := 0.0
	for i, t := range c.cfg.Spec.Types {
		n := c.incumbent.Config[i] - c.lost[i]
		if n <= 0 {
			continue
		}
		price := t.PricePerHour
		if c.cfg.UseSpot {
			price = t.SpotPrice(c.marketFactorLocked(t.Family))
		}
		total += float64(n) * price
	}
	return total
}

// accrueLocked integrates the spend meter up to nowMs at the current live
// pool and prices. Called before any state change that alters either.
func (c *Controller) accrueLocked(nowMs float64) {
	if nowMs > c.accrualLastMs {
		if c.hasIncumbent {
			c.stat.AccruedCost += c.liveCostPerHourLocked() * (nowMs - c.accrualLastMs) / msPerHour
		}
		c.accrualLastMs = nowMs
	}
}

// syncMarketLocked stamps the market factors a reconfiguration decision was
// priced at; the next price trigger measures its move against these.
func (c *Controller) syncMarketLocked() {
	for fam, f := range c.market {
		c.lastMarket[fam] = f
	}
}
