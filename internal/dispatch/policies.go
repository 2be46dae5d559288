package dispatch

import (
	"math/rand/v2"

	"ribbon/internal/cloud"
	"ribbon/internal/workload"
)

// fcfsPolicy is the paper's dispatch rule (Sec. 5.1): a new arrival goes to
// the first idle instance in pool preference order; otherwise it joins the
// shared FIFO queue, and whichever instance finishes first takes the queue
// head. With this policy the simulator reproduces the paper's deployment
// bit-for-bit.
type fcfsPolicy struct{}

func (fcfsPolicy) Pick(c workload.Criticality, v View, rng rand.Source) Decision {
	if i := firstIdle(v); i >= 0 {
		return Assign(i)
	}
	return EnqueueShared(0)
}

// firstIdle returns the first idle instance in preference order, -1 when
// every instance is busy.
func firstIdle(v View) int {
	if s, ok := v.(*State); ok {
		// The simulator's path, once per arrival of every evaluation: the
		// same scan without an interface call per instance.
		for i, busy := range s.busy {
			if !busy {
				return i
			}
		}
		return -1
	}
	for i, n := 0, v.Instances(); i < n; i++ {
		if !v.Busy(i) {
			return i
		}
	}
	return -1
}

// leastLoadedPolicy is join-shortest-queue: every arrival goes to the
// instance with the smallest backlog (queue length plus the query in
// service), ties broken by pool preference order. Queues are per-instance;
// an instance only drains its own queue.
type leastLoadedPolicy struct{}

func (leastLoadedPolicy) Pick(c workload.Criticality, v View, rng rand.Source) Decision {
	best, bestLoad := 0, v.Load(0)
	for i, n := 1, v.Instances(); i < n; i++ {
		if l := v.Load(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if !v.Busy(best) {
		return Assign(best)
	}
	return EnqueueInstance(best)
}

// costRandomPolicy assigns each arrival to a random idle instance with
// probability proportional to inverse price, spreading load toward cheap
// instances without starving expensive ones; when every instance is busy the
// query joins a shared FIFO queue. The weights are precomputed per pool.
type costRandomPolicy struct {
	weights []float64 // 1/price per instance
}

func newCostRandomPolicy(pool []cloud.InstanceType) *costRandomPolicy {
	w := make([]float64, len(pool))
	for i, t := range pool {
		// Guard degenerate zero-price catalog entries; equal weight.
		if t.PricePerHour > 0 {
			w[i] = 1 / t.PricePerHour
		} else {
			w[i] = 1
		}
	}
	return &costRandomPolicy{weights: w}
}

func (p *costRandomPolicy) Pick(c workload.Criticality, v View, rng rand.Source) Decision {
	n := v.Instances()
	total := 0.0
	for i := 0; i < n; i++ {
		if !v.Busy(i) {
			total += p.weights[i]
		}
	}
	if total == 0 {
		return EnqueueShared(0)
	}
	// The [0, 1) mapping of rand.Rand.Float64, so a *stats.RNG source draws
	// exactly what its Float64 would.
	u := float64(rng.Uint64()<<11>>11) / (1 << 53) * total
	for i := 0; i < n; i++ {
		if v.Busy(i) {
			continue
		}
		u -= p.weights[i]
		if u < 0 {
			return Assign(i)
		}
	}
	// Float round-off exhausted u on the last idle instance.
	for i := n - 1; i >= 0; i-- {
		if !v.Busy(i) {
			return Assign(i)
		}
	}
	return EnqueueShared(0)
}

// criticalityPolicy differentiates the InferencePool-style service classes:
// assignment follows pool preference order like FCFS, but the shared queue is
// a class-priority queue (Critical before Standard before Sheddable, FIFO
// within a class), and once the pool-wide backlog reaches shedAt an arriving
// Sheddable query is dropped instead of inflating the tail for everyone.
type criticalityPolicy struct {
	shedAt int
}

func (p criticalityPolicy) Pick(c workload.Criticality, v View, rng rand.Source) Decision {
	if i := firstIdle(v); i >= 0 {
		return Assign(i)
	}
	if c.Normalize() == workload.ClassSheddable && v.TotalQueued() >= p.shedAt {
		return Shed()
	}
	return EnqueueShared(c.Rank())
}
