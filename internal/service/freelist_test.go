package service

import (
	"runtime"
	"testing"
)

// TestFreeListKeepsAcrossGC: a released value survives garbage
// collections and comes back from the next get, the list keeps at most
// one value per processor, and an empty list allocates a new one.
func TestFreeListKeepsAcrossGC(t *testing.T) {
	made := 0
	f := newFreeList(func() *int { made++; return new(int) })
	n := runtime.GOMAXPROCS(0)
	vals := make([]*int, n+1)
	for i := range vals {
		vals[i] = f.get()
	}
	if made != n+1 {
		t.Fatalf("empty list: %d values made for %d gets", made, n+1)
	}
	for _, v := range vals {
		f.put(v)
	}
	runtime.GC()
	runtime.GC()
	kept := map[*int]bool{}
	for range n {
		kept[f.get()] = true
	}
	if made != n+1 {
		t.Errorf("after two collections %d of %d kept values were lost", made-n-1, n)
	}
	for _, v := range vals[:n] {
		if !kept[v] {
			t.Errorf("value %p put back but not returned", v)
		}
	}
	if f.get(); made != n+2 {
		t.Errorf("list kept more than %d values", n)
	}
}
