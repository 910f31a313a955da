package sim

// FreeList recycles the pooled carriers that ride AtArg-style callbacks
// (per-packet jobs, DMA writes and reads), so a warm steady state
// schedules them without allocating. The zero value is an empty list.
type FreeList[T any] struct {
	free []*T
}

// Get returns a zeroed *T, reusing a released one when there is one.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free = l.free[:n-1]
	return x
}

// Put zeroes x, so the list never retains what it referenced, and keeps
// it for a later Get.
func (l *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
}
