package service

import "runtime"

// freeList keeps released values for reuse, at most one per processor.
// Unlike a sync.Pool, which every garbage collection empties, it holds
// what it keeps until a caller takes it. The memory it retains is then
// set by the most values ever in use at once (capped at the processor
// count), not by when the last collection ran, and a collection never
// throws away a grown value that the next caller has to grow again.
type freeList[T any] struct {
	free  chan *T
	alloc func() *T
}

func newFreeList[T any](alloc func() *T) *freeList[T] {
	return &freeList[T]{free: make(chan *T, runtime.GOMAXPROCS(0)), alloc: alloc}
}

// get returns a kept value, or a new one when none is kept.
func (f *freeList[T]) get() *T {
	select {
	case v := <-f.free:
		return v
	default:
		return f.alloc()
	}
}

// put keeps v for a later get, or drops it when the list is full.
func (f *freeList[T]) put(v *T) {
	select {
	case f.free <- v:
	default:
	}
}
