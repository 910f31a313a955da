package sim

import "slices"

// Queue is the simulator's FIFO: a slice-backed queue whose pops advance
// a head index, so the backing array is kept across pops. A push that
// finds the array full slides the live tail to the front when at least
// half of it is consumed and grows it otherwise, so the array stays
// within four times the peak backlog, a standing backlog allocates
// nothing once warm, and an entry is moved O(1) times on average. The
// zero value is an empty queue.
type Queue[T any] struct {
	s    []T
	head int
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.s) - q.head }

// Peek returns the oldest entry; the queue must not be empty.
func (q *Queue[T]) Peek() T { return q.s[q.head] }

// Push appends x at the tail.
func (q *Queue[T]) Push(x T) {
	if len(q.s) == cap(q.s) && 2*q.head >= len(q.s) {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, x)
}

// Pop removes and returns the oldest entry; the queue must not be
// empty. The vacated slot is zeroed, so the queue never retains what a
// popped entry referenced.
func (q *Queue[T]) Pop() T {
	x := q.s[q.head]
	var zero T
	q.s[q.head] = zero
	q.head++
	if q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
	return x
}

// Items returns the queued entries, oldest first. The slice aliases the
// queue and is valid until its next Push, Pop or DeleteFunc.
func (q *Queue[T]) Items() []T { return q.s[q.head:] }

// DeleteFunc removes every entry for which del returns true, keeping the
// rest in order. del sees the entries oldest first.
func (q *Queue[T]) DeleteFunc(del func(T) bool) {
	q.s = q.s[:q.head+len(slices.DeleteFunc(q.s[q.head:], del))]
	if q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
}
