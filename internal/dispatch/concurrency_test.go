package dispatch

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

// These tests lock in the two concurrency properties of the package. State
// is single-owner, so concurrent users either give every shard its own
// State or serialize access behind a lock; run under -race, the tests below
// fail if either pattern ever stops being safe — e.g. if State or a Policy
// grows hidden shared mutable state.

// TestStateShardedConcurrency drives one independent State (and one fresh
// Policy of each built-in kind) per processor, all over the same shared
// read-only type slice, with no synchronization between shards. Any
// cross-shard aliasing — package globals, memory reused across Reset, a
// policy scribbling on the pool slice — is a data race here.
func TestStateShardedConcurrency(t *testing.T) {
	types := pool(t, "c5a", "m5", "t3", "c5a", "m5", "t3")
	kinds := []Spec{
		{Kind: KindFCFS},
		{Kind: KindLeastLoaded},
		{Kind: KindCostRandom},
		{Kind: KindCriticality, ShedQueueLength: 8},
	}

	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		shards = 2
	}
	var wg sync.WaitGroup
	for shard := 0; shard < shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			s := NewState(types)
			rng := stats.Derive(42, "dispatch-test", fmt.Sprintf("%d", shard))
			classes := []workload.Criticality{workload.ClassSheddable, workload.ClassStandard, workload.ClassCritical}
			for round := 0; round < 50; round++ {
				pol := kinds[round%len(kinds)].MustNew(types)
				// A full little run: arrivals routed, busy instances
				// completing and pulling queued work.
				for i := 0; i < 200; i++ {
					d := pol.Pick(classes[i%len(classes)], s, rng)
					switch d.Action {
					case ActAssign:
						if s.Busy(d.Instance) {
							t.Errorf("shard %d: assigned query %d to busy instance %d", shard, i, d.Instance)
							return
						}
						s.SetBusy(d.Instance, true)
					case ActEnqueueShared:
						s.PushShared(i, d.Rank)
					case ActEnqueueInstance:
						s.PushInstance(d.Instance, i)
					case ActShed:
					}
					// Every third arrival, one busy instance finishes.
					if i%3 == 2 {
						for inst := 0; inst < s.Instances(); inst++ {
							if !s.Busy(inst) {
								continue
							}
							s.SetBusy(inst, false)
							if _, ok := s.Next(inst); ok {
								s.SetBusy(inst, true)
							}
							break
						}
					}
				}
				if s.TotalQueued() != s.SharedLen()+perInstanceTotal(s) {
					t.Errorf("shard %d round %d: TotalQueued %d != shared %d + per-instance %d",
						shard, round, s.TotalQueued(), s.SharedLen(), perInstanceTotal(s))
					return
				}
				// Reset reuses the arena — the gateway-equivalent of starting
				// the next evaluation run on the same shard.
				s.Reset(types)
				if s.TotalQueued() != 0 || s.SharedLen() != 0 {
					t.Errorf("shard %d: Reset left %d queued", shard, s.TotalQueued())
					return
				}
			}
		}(shard)
	}
	wg.Wait()
}

func perInstanceTotal(s *State) int {
	n := 0
	for i := 0; i < s.Instances(); i++ {
		n += s.QueueLen(i)
	}
	return n
}

// TestStateSerializedHammer hammers one shared State from GOMAXPROCS
// goroutines behind a mutex — the other legal concurrent pattern — and
// checks conservation: every pushed index pops exactly once, FIFO order
// holds per producer within a rank, and the queued accounting never drifts.
func TestStateSerializedHammer(t *testing.T) {
	types := pool(t, "c5a", "m5")
	s := NewState(types)
	var mu sync.Mutex

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 2000

	// Index space: worker w pushes w*perWorker+k in increasing k, always at
	// rank w%NumRanks, so FIFO order within a (worker, rank) pair is total.
	popped := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pushed := 0
			for pushed < perWorker {
				mu.Lock()
				// Push a small burst, then pop a couple from anywhere —
				// contention on both halves of the queue API.
				for b := 0; b < 5 && pushed < perWorker; b++ {
					idx := w*perWorker + pushed
					if pushed%2 == 0 {
						s.PushShared(idx, w%NumRanks)
					} else {
						s.PushInstance(w%len(types), idx)
					}
					pushed++
				}
				for p := 0; p < 4; p++ {
					if idx, ok := s.Next(w % len(types)); ok {
						popped[w] = append(popped[w], idx)
					}
				}
				if s.TotalQueued() != s.SharedLen()+perInstanceTotal(s) {
					t.Errorf("queued accounting drifted: %d != %d+%d",
						s.TotalQueued(), s.SharedLen(), perInstanceTotal(s))
					mu.Unlock()
					return
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Drain the remainder and account for every index exactly once.
	rest := []int{}
	for i := 0; i < s.Instances(); i++ {
		for {
			idx, ok := s.Next(i)
			if !ok {
				break
			}
			rest = append(rest, idx)
		}
	}
	if s.TotalQueued() != 0 {
		t.Fatalf("drained state still reports %d queued", s.TotalQueued())
	}

	seen := make(map[int]int)
	for _, per := range popped {
		for _, idx := range per {
			seen[idx]++
		}
	}
	for _, idx := range rest {
		seen[idx]++
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("%d distinct indices accounted for, want %d", len(seen), workers*perWorker)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("index %d popped %d times", idx, n)
		}
	}
}
