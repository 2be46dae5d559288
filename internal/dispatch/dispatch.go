// Package dispatch is the query-routing engine of the serving pool, shared
// by the offline simulator and the live gateway: it decides, for every
// arriving query, which instance serves it, where it waits, or whether it is
// shed. The paper's deployment hard-codes one rule — first-come-first-serve
// to the first available instance in pool preference order (Sec. 5.1) —
// which is this package's default Policy; the other built-in policies
// (least-loaded, cost-weighted random, and the criticality-aware load
// shedder) open the routing dimension that production inference gateways
// differentiate on.
//
// The contract has three parts:
//
//   - View is the pool as a policy reads it: instance count, busy flags,
//     per-instance backlog and the pool-wide queued total.
//   - Policy places arrivals: Pick assigns, enqueues or sheds one query over
//     a View. Policies never mutate the pool.
//   - The pool has one FIFO queue per instance plus one shared queue with
//     NumRanks priority ranks, and an instance that goes idle serves its own
//     queue first, then the shared queue by rank (State.Next). State is the
//     simulator's single-owner realization; the gateway keeps the same
//     queues with channels and serves them in the same order.
//
// Policies are deterministic functions of the view and the random source
// handed to Pick: the simulator derives that source from the evaluation seed
// and the deployed configuration, the gateway from each request.
package dispatch

import (
	"fmt"
	"math/rand/v2"

	"ribbon/internal/cloud"
	"ribbon/internal/workload"
)

// Action is what happens to a newly arrived query.
type Action int

const (
	// ActAssign starts the query immediately on Decision.Instance, which
	// must be idle.
	ActAssign Action = iota
	// ActEnqueueShared parks the query in the shared queue at
	// Decision.Rank (higher ranks pop first, FIFO within a rank).
	ActEnqueueShared
	// ActEnqueueInstance parks the query in Decision.Instance's own FIFO.
	ActEnqueueInstance
	// ActShed drops the query: it is never served and counts as shed.
	ActShed
)

// Decision is a Policy's routing verdict for one arrival.
type Decision struct {
	Action   Action
	Instance int // target of ActAssign / ActEnqueueInstance
	Rank     int // shared-queue priority for ActEnqueueShared, in [0, NumRanks)
}

// Assign runs the query now on the idle instance i.
func Assign(i int) Decision { return Decision{Action: ActAssign, Instance: i} }

// EnqueueShared parks the query in the shared queue at the given rank.
func EnqueueShared(rank int) Decision { return Decision{Action: ActEnqueueShared, Rank: rank} }

// EnqueueInstance parks the query in instance i's own queue.
func EnqueueInstance(i int) Decision { return Decision{Action: ActEnqueueInstance, Instance: i} }

// Shed drops the query.
func Shed() Decision { return Decision{Action: ActShed} }

// View is the read-only pool a Policy decides over. Instances are indexed in
// dispatch preference order.
type View interface {
	// Instances returns the number of deployed instances.
	Instances() int
	// Busy reports whether instance i has work in hand.
	Busy(i int) bool
	// Load returns instance i's backlog: its own queue length plus one if
	// busy. Join-shortest-queue minimizes it.
	Load(i int) int
	// TotalQueued returns the number of queries waiting anywhere in the
	// pool, shared queue included: the queue-pressure signal load shedding
	// reads.
	TotalQueued() int
}

// Policy places arriving queries. A Policy is built per deployed pool (it
// may precompute per-instance weights) and holds no mutable state, so one
// value is safe for concurrent use.
type Policy interface {
	// Pick places an arriving query of class c on the pool v. Any
	// randomness comes from rng.
	Pick(c workload.Criticality, v View, rng rand.Source) Decision
}

// NumRanks is the number of shared-queue priority levels; workload
// criticality ranks fit exactly.
const NumRanks = 3

// fifo is an amortized-O(1) FIFO of stream indices.
type fifo struct {
	items []int
	head  int
}

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) reset() { f.items = f.items[:0]; f.head = 0 }

func (f *fifo) push(idx int) { f.items = append(f.items, idx) }

func (f *fifo) pop() (int, bool) {
	if f.head >= len(f.items) {
		return 0, false
	}
	v := f.items[f.head]
	f.head++
	// Compact once the dead prefix dominates, bounding memory on long
	// backlogs without changing FIFO order.
	if f.head > 1024 && f.head*2 > len(f.items) {
		f.items = append(f.items[:0], f.items[f.head:]...)
		f.head = 0
	}
	return v, true
}

// State is the simulator's pool: busy flags, one shared priority-FIFO queue,
// and one FIFO queue per instance. It implements View. The simulator owns
// it: it flips busy flags around service, parks the queries a Policy
// enqueues, and asks Next for an idle instance's next query.
type State struct {
	busy    []bool
	shared  [NumRanks]fifo
	perInst []fifo
	queued  int
}

// NewState builds the state for a deployed pool of instances in dispatch
// preference order.
func NewState(types []cloud.InstanceType) *State {
	s := &State{}
	s.Reset(types)
	return s
}

// Reset reinitializes the state for a fresh run over a (possibly different)
// deployed pool, reusing the previous run's allocations where capacities
// allow. The simulator's per-evaluation arena depends on it: Evaluate runs
// hundreds of times per search and must not rebuild queue storage each time.
func (s *State) Reset(types []cloud.InstanceType) {
	n := len(types)
	if cap(s.busy) >= n {
		s.busy = s.busy[:n]
		for i := range s.busy {
			s.busy[i] = false
		}
	} else {
		s.busy = make([]bool, n)
	}
	if cap(s.perInst) >= n {
		s.perInst = s.perInst[:n]
	} else {
		old := s.perInst
		s.perInst = make([]fifo, n)
		copy(s.perInst, old)
	}
	for i := range s.perInst {
		s.perInst[i].reset()
	}
	for r := range s.shared {
		s.shared[r].reset()
	}
	s.queued = 0
}

// Instances returns the number of deployed instances.
func (s *State) Instances() int { return len(s.busy) }

// Busy reports whether instance i is serving a query.
func (s *State) Busy(i int) bool { return s.busy[i] }

// SetBusy flips instance i's busy flag; the simulator calls it around
// service start and completion.
func (s *State) SetBusy(i int, b bool) { s.busy[i] = b }

// QueueLen returns the length of instance i's own queue.
func (s *State) QueueLen(i int) int { return s.perInst[i].len() }

// SharedLen returns the total length of the shared queue across ranks.
func (s *State) SharedLen() int {
	n := 0
	for r := range s.shared {
		n += s.shared[r].len()
	}
	return n
}

// TotalQueued returns the number of queries waiting anywhere in the pool —
// the queue-pressure signal used by load shedding and by the simulator's
// early-termination guard.
func (s *State) TotalQueued() int { return s.queued }

// Load returns instance i's backlog including the query in service: its own
// queue length plus one if busy. Join-shortest-queue minimizes this.
func (s *State) Load(i int) int {
	l := s.perInst[i].len()
	if s.busy[i] {
		l++
	}
	return l
}

// PushShared parks idx in the shared queue at rank (clamped to the valid
// range).
func (s *State) PushShared(idx, rank int) {
	if rank < 0 {
		rank = 0
	}
	if rank >= NumRanks {
		rank = NumRanks - 1
	}
	s.shared[rank].push(idx)
	s.queued++
}

// PushInstance parks idx in instance i's own queue.
func (s *State) PushInstance(i, idx int) {
	s.perInst[i].push(idx)
	s.queued++
}

// Next removes and returns the query the just-idled instance i serves next:
// the oldest in its own queue, else the highest-rank, oldest query in the
// shared queue. ok=false leaves the instance idle.
func (s *State) Next(i int) (idx int, ok bool) {
	if idx, ok = s.perInst[i].pop(); !ok {
		for r := NumRanks - 1; r >= 0 && !ok; r-- {
			idx, ok = s.shared[r].pop()
		}
	}
	if ok {
		s.queued--
	}
	return idx, ok
}

// Kind names a built-in policy; it is the wire value of the control-plane
// API's dispatch.policy field.
type Kind string

// The built-in policy kinds.
const (
	// KindFCFS is the paper's rule: first idle instance in pool preference
	// order, one shared FIFO queue. The default.
	KindFCFS Kind = "fcfs"
	// KindLeastLoaded is join-shortest-queue over per-instance queues.
	KindLeastLoaded Kind = "least-loaded"
	// KindCostRandom assigns among idle instances at random, weighted by
	// inverse price, with a shared FIFO overflow queue.
	KindCostRandom Kind = "cost-random"
	// KindCriticality is preference-order assignment with a class-priority
	// shared queue that sheds Sheddable queries under queue pressure.
	KindCriticality Kind = "criticality"
)

// Kinds lists the built-in policy kinds in presentation order.
func Kinds() []Kind {
	return []Kind{KindFCFS, KindLeastLoaded, KindCostRandom, KindCriticality}
}

// DefaultShedQueueLength is the criticality policy's queue-pressure
// threshold when the spec does not set one: once this many queries wait
// anywhere in the pool, arriving Sheddable queries are dropped.
const DefaultShedQueueLength = 16

// Spec selects and parameterizes a policy. It is a plain value — comparable,
// serializable, and safe to copy — so it travels through ServiceConfig and
// the control-plane DTOs; the simulator and the gateway turn it into a
// Policy per deployed pool with New. The zero value is the paper's FCFS
// rule.
type Spec struct {
	// Kind picks a built-in policy; empty means KindFCFS.
	Kind Kind
	// ShedQueueLength is the criticality policy's shed threshold;
	// DefaultShedQueueLength when zero. Ignored by other kinds.
	ShedQueueLength int
}

// Name returns the effective policy name for results and tables.
func (sp Spec) Name() string {
	if sp.Kind == "" {
		return string(KindFCFS)
	}
	return string(sp.Kind)
}

// Validate rejects unknown kinds and negative thresholds.
func (sp Spec) Validate() error {
	if sp.ShedQueueLength < 0 {
		return fmt.Errorf("dispatch: negative shed queue length %d", sp.ShedQueueLength)
	}
	switch sp.Kind {
	case "", KindFCFS, KindLeastLoaded, KindCostRandom, KindCriticality:
		return nil
	}
	return fmt.Errorf("dispatch: unknown policy %q", sp.Kind)
}

// New builds the Policy for a deployed pool, which is in dispatch preference
// order.
func (sp Spec) New(pool []cloud.InstanceType) (Policy, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch sp.Kind {
	case "", KindFCFS:
		return fcfsPolicy{}, nil
	case KindLeastLoaded:
		return leastLoadedPolicy{}, nil
	case KindCostRandom:
		return newCostRandomPolicy(pool), nil
	case KindCriticality:
		shed := sp.ShedQueueLength
		if shed == 0 {
			shed = DefaultShedQueueLength
		}
		return criticalityPolicy{shedAt: shed}, nil
	}
	panic("dispatch: unreachable: validated spec with unknown kind")
}

// MustNew is New but panics on an invalid spec; for internal call sites that
// validated the spec at the API boundary.
func (sp Spec) MustNew(pool []cloud.InstanceType) Policy {
	p, err := sp.New(pool)
	if err != nil {
		panic(err)
	}
	return p
}
