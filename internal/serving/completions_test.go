package serving

import (
	"sort"
	"testing"
)

// The typed completion heap must order by (time, push order): the serving
// simulator's bit-identical output depends on that contract.
func TestCompletionHeapOrdering(t *testing.T) {
	var q completionHeap
	times := []float64{5, 1, 3, 1, 5, 2, 1}
	for i, tm := range times {
		q.Push(tm, int32(i), int32(i))
	}
	type popped struct {
		time float64
		inst int32
	}
	var got []popped
	for q.Len() > 0 {
		c := q.Pop()
		got = append(got, popped{c.Time, c.Inst})
	}
	// Expected: stable sort of (time, insertion order).
	want := []popped{{1, 1}, {1, 3}, {1, 6}, {2, 5}, {3, 2}, {5, 0}, {5, 4}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %+v, want %+v (full: %+v)", i, got[i], want[i], got)
		}
	}
}

// Randomized cross-check against a reference sort, including Reset reuse.
func TestCompletionHeapMatchesReferenceSort(t *testing.T) {
	var q completionHeap
	for round := 0; round < 3; round++ {
		q.Reset()
		n := 200
		type ev struct {
			time float64
			seq  int
		}
		evs := make([]ev, 0, n)
		// Deterministic pseudo-random times with plenty of ties.
		s := uint64(12345 + round)
		for i := 0; i < n; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			tm := float64(s % 50)
			evs = append(evs, ev{tm, i})
			q.Push(tm, 0, int32(i))
		}
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].time < evs[b].time })
		for i, want := range evs {
			c := q.Pop()
			if c.Time != want.time || int(c.Idx) != want.seq {
				t.Fatalf("round %d pop %d = (%v, %d), want (%v, %d)",
					round, i, c.Time, c.Idx, want.time, want.seq)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("heap not drained")
		}
	}
}
