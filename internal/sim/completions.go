// Package sim holds the discrete-event primitive of the serving simulator
// (internal/serving): CompletionHeap, a heap of plain completion values with
// no closures or interface boxing, whose backing array is reused across
// runs. Events fire by (time, scheduling order), so ties break FIFO; tests
// pin that order against a stable sort. The package knows nothing about
// queries or instances.
package sim

// Completion is a typed completion event on the simulator's hot path:
// instance Inst finishes the query with stream index Idx at Time. A
// Completion is a plain value, so pushing one onto a CompletionHeap
// allocates nothing once the heap's backing array has grown to the run's
// high-water mark.
type Completion struct {
	// Time is the absolute completion time in milliseconds.
	Time float64
	// seq breaks time ties FIFO (scheduling order).
	seq uint64
	// Inst is the serving instance index; Idx is the query stream index.
	Inst, Idx int32
}

// CompletionHeap is a time-ordered min-heap of typed completion events with
// FIFO tie-breaking: events pop by (Time, push order), so two completions at
// the same instant fire in the order they were scheduled. The backing array
// is reusable across runs via Reset.
type CompletionHeap struct {
	h   []Completion
	seq uint64
}

// Len returns the number of pending completions.
func (q *CompletionHeap) Len() int { return len(q.h) }

// Reset empties the heap, keeping its backing array for reuse.
func (q *CompletionHeap) Reset() {
	q.h = q.h[:0]
	q.seq = 0
}

// MinTime returns the earliest pending completion time. It must not be
// called on an empty heap.
func (q *CompletionHeap) MinTime() float64 { return q.h[0].Time }

// Push schedules a completion of query idx on instance inst at time t.
func (q *CompletionHeap) Push(t float64, inst, idx int32) {
	q.seq++
	q.h = append(q.h, Completion{Time: t, seq: q.seq, Inst: inst, Idx: idx})
	q.up(len(q.h) - 1)
}

// Pop removes and returns the earliest pending completion.
func (q *CompletionHeap) Pop() Completion {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

func (q *CompletionHeap) less(i, j int) bool {
	if q.h[i].Time != q.h[j].Time {
		return q.h[i].Time < q.h[j].Time
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *CompletionHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *CompletionHeap) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		child := l
		if r := l + 1; r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			return
		}
		q.h[i], q.h[child] = q.h[child], q.h[i]
		i = child
	}
}
