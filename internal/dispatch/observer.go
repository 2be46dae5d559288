package dispatch

import (
	"math/rand/v2"
	"time"

	"ribbon/internal/workload"
)

// Observer receives per-decision routing telemetry from an instrumented
// Policy. Implementations must be safe for concurrent use — parallel
// searches run evaluations (and therefore policies) on many goroutines.
//
// Observation is strictly passive: an instrumented policy makes exactly the
// decisions the bare policy would, so evaluation results are bit-identical
// with or without an Observer attached.
type Observer interface {
	// ObservePick reports one routing decision: the policy's name, the
	// wall-clock seconds spent deciding, the query's criticality rank
	// (0 = sheddable .. 2 = critical), and whether the arrival was shed.
	ObservePick(policy string, seconds float64, rank int, shed bool)
}

// Instrument wraps p so every Pick reports to o under the policy name. A nil
// Observer returns p unchanged, so call sites need no conditional.
func Instrument(p Policy, name string, o Observer) Policy {
	if o == nil || p == nil {
		return p
	}
	return instrumented{p: p, name: name, o: o}
}

type instrumented struct {
	p    Policy
	name string
	o    Observer
}

func (ip instrumented) Pick(c workload.Criticality, v View, rng rand.Source) Decision {
	t0 := time.Now()
	d := ip.p.Pick(c, v, rng)
	ip.o.ObservePick(ip.name, time.Since(t0).Seconds(), c.Rank(), d.Action == ActShed)
	return d
}
