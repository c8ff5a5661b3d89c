package enumerate

import (
	"sync/atomic"
	"testing"

	"repro/internal/canon"
	"repro/internal/classify"
	"repro/internal/lcl"
	"repro/internal/memo"
)

// TestOrbitTableMatchesSweep is the orbit-table acceptance property:
// over the FULL k=2 and k=3 mask spaces, the table-driven CanonicalKey
// agrees with the reference permutation sweep, IsCanonicalPair holds
// exactly for the keys' fixed points, and the orbit sizes both tile the
// raw space and match a direct orbit count.
func TestOrbitTableMatchesSweep(t *testing.T) {
	for _, k := range []int{2, 3} {
		tbl := canon.Orbits(k)
		total := uint(1) << uint(PairCount(k))
		raw := 0
		for n2 := uint(0); n2 < total; n2++ {
			for e := uint(0); e < total; e++ {
				cn, ce := CanonicalKey(k, n2, e)
				sn, se := canonicalKeySweep(k, n2, e)
				if cn != sn || ce != se {
					t.Fatalf("k=%d (N%d,E%d): table key (N%d,E%d), sweep key (N%d,E%d)", k, n2, e, cn, ce, sn, se)
				}
				if got := tbl.IsCanonicalPair(n2, e); got != (cn == n2 && ce == e) {
					t.Fatalf("k=%d (N%d,E%d): IsCanonicalPair = %v but canonical key is (N%d,E%d)", k, n2, e, got, cn, ce)
				}
				if tbl.IsCanonicalPair(n2, e) {
					size := tbl.PairOrbitSize(n2, e)
					count := 0
					forEachPermutation(k, func(perm []int) { count++ })
					// Direct orbit count: distinct images over all perms.
					seen := map[[2]uint]bool{}
					forEachPermutation(k, func(perm []int) {
						seen[[2]uint{permuteMask(k, n2, perm), permuteMask(k, e, perm)}] = true
					})
					if size != len(seen) {
						t.Fatalf("k=%d rep (N%d,E%d): orbit size %d, direct count %d", k, n2, e, size, len(seen))
					}
					raw += size
				}
			}
		}
		if raw != int(total)*int(total) {
			t.Fatalf("k=%d: orbit sizes cover %d of %d raw problems", k, raw, int(total)*int(total))
		}
	}
}

// TestCanonicalTripleInvariant: the path-census triple canonicalization
// is idempotent and constant on orbits (spot-checked over the full k=2
// triple space).
func TestCanonicalTripleInvariant(t *testing.T) {
	k := 2
	tbl := canon.Orbits(k)
	pairSpace := uint(1) << uint(PairCount(k))
	endSpace := uint(1) << uint(k)
	for n1 := uint(0); n1 < endSpace; n1++ {
		for n2 := uint(0); n2 < pairSpace; n2++ {
			for e := uint(0); e < pairSpace; e++ {
				c1, c2, c3 := tbl.CanonicalTriple(n1, n2, e)
				i1, i2, i3 := tbl.CanonicalTriple(c1, c2, c3)
				if c1 != i1 || c2 != i2 || c3 != i3 {
					t.Fatalf("triple (N1 %d, N %d, E %d): canonical (%d,%d,%d) re-canonicalizes to (%d,%d,%d)",
						n1, n2, e, c1, c2, c3, i1, i2, i3)
				}
				forEachPermutation(k, func(perm []int) {
					var p1 uint
					for a := 0; a < k; a++ {
						if n1&(1<<uint(a)) != 0 {
							p1 |= 1 << uint(perm[a])
						}
					}
					q1, q2, q3 := tbl.CanonicalTriple(p1, permuteMask(k, n2, perm), permuteMask(k, e, perm))
					if q1 != c1 || q2 != c2 || q3 != c3 {
						t.Fatalf("triple (N1 %d, N %d, E %d): orbit member canonicalizes to (%d,%d,%d), want (%d,%d,%d)",
							n1, n2, e, q1, q2, q3, c1, c2, c3)
					}
				})
			}
		}
	}
}

// TestFastCycleFingerprint: the orbit-table fingerprint fast path agrees
// with the full canonical search over the whole k=2 mask space, and
// declines problems outside its shape.
func TestFastCycleFingerprint(t *testing.T) {
	total := uint(1) << uint(PairCount(2))
	for n2 := uint(0); n2 < total; n2++ {
		for e := uint(0); e < total; e++ {
			p := FromMasks(2, n2, e)
			fast, ok := FastCycleFingerprint(p)
			if !ok {
				t.Fatalf("(N%d,E%d): fast path declined a mask problem", n2, e)
			}
			slow := canon.MustFingerprint(p)
			if fast != slow {
				t.Fatalf("(N%d,E%d): fast fingerprint %x, canonical %x", n2, e, fast, slow)
			}
		}
	}
	// A problem with a restricted g map is not mask-shaped.
	b := lcl.NewBuilder("restricted-g", []string{"·"}, []string{"A", "B"})
	b.Node("A", "A")
	b.Edge("A", "A")
	b.Allow("·", "A")
	if _, ok := FastCycleFingerprint(b.MustBuild()); ok {
		t.Fatal("fast path accepted a problem with a restricted g map")
	}
	// Degree-1 configurations (path problems) are out of shape too.
	if _, ok := FastCycleFingerprint(FromPathMasks(2, 1, 1, 1)); ok {
		t.Fatal("fast path accepted a path problem with endpoint configs")
	}
}

// TestFastCycleFingerprintAllocs: the fast path allocates nothing on a
// mask it has seen, and materializing a mask problem does not rebuild
// the alphabet per constraint. FromMasks over the full k=3 masks took
// 132 allocations while labelNames built a fresh slice per pair.
func TestFastCycleFingerprintAllocs(t *testing.T) {
	p := FromMasks(3, 0x15, 0x2a)
	FastCycleFingerprint(p) // fill the mask-fingerprint cache
	if allocs := testing.AllocsPerRun(100, func() { FastCycleFingerprint(p) }); allocs != 0 {
		t.Errorf("warm FastCycleFingerprint: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = labelNames(3) }); allocs != 0 {
		t.Errorf("labelNames: %v allocs/op, want 0", allocs)
	}
	full := uint(1)<<uint(PairCount(3)) - 1
	if allocs := testing.AllocsPerRun(100, func() { FromMasks(3, full, full) }); allocs > 32 {
		t.Errorf("FromMasks(3, full, full): %v allocs/op, want <= 32", allocs)
	}
}

// TestCensusClassifiesEachOrbitOnce is the orbit-representative
// acceptance criterion: with no cache and no warm start, the census
// invokes the classifier exactly once per isomorphism class — both with
// dedup (one entry per orbit) and without (every raw entry shares its
// representative's result).
func TestCensusClassifiesEachOrbitOnce(t *testing.T) {
	orig := classifyCycles
	defer func() { classifyCycles = orig }()
	var calls atomic.Int64
	classifyCycles = func(p *lcl.Problem) (*classify.Result, error) {
		calls.Add(1)
		return orig(p)
	}
	for _, k := range []int{2, 3} {
		for _, dedup := range []bool{true, false} {
			calls.Store(0)
			c, err := RunWith(k, dedup, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			orbits := len(c.Entries)
			if !dedup {
				// Raw censuses still classify one representative per
				// orbit; the orbit count comes from the pure enumeration.
				orbits = len(CycleLCLs(k, true))
			}
			if int(calls.Load()) != orbits {
				t.Fatalf("k=%d dedup=%v: %d classifier invocations for %d orbits", k, dedup, calls.Load(), orbits)
			}
		}
	}
}

// BenchmarkCanonicalKey measures the orbit-table mask canonicalization
// over the full k=3 space; TestCanonicalKeyZeroAlloc gates its 0
// allocs/op invariant.
func BenchmarkCanonicalKey(b *testing.B) {
	CanonicalKey(3, 0, 0) // build the tables outside the timed loop
	total := uint(1) << uint(PairCount(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sinkN, sinkE uint
		for n2 := uint(0); n2 < total; n2++ {
			for e := uint(0); e < total; e++ {
				sinkN, sinkE = CanonicalKey(3, n2, e)
			}
		}
		benchSinkN, benchSinkE = sinkN, sinkE
	}
}

var benchSinkN, benchSinkE uint

// TestCanonicalKeyZeroAlloc: canonicalizing every mask pair of the k=3
// space allocates nothing once the orbit tables are built.
func TestCanonicalKeyZeroAlloc(t *testing.T) {
	CanonicalKey(3, 0, 0) // build the tables outside the measured runs
	total := uint(1) << uint(PairCount(3))
	allocs := testing.AllocsPerRun(3, func() {
		for n2 := uint(0); n2 < total; n2++ {
			for e := uint(0); e < total; e++ {
				benchSinkN, benchSinkE = CanonicalKey(3, n2, e)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("CanonicalKey over the k=3 space: %v allocs per sweep, want 0", allocs)
	}
}

// BenchmarkCensusCold runs the deduplicated k=3 census against a fresh
// cache every iteration — the cold path the BENCH_small latency gate
// anchors on.
func BenchmarkCensusCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(3, true, RunOpts{Cache: memo.New(0, 0)}); err != nil {
			b.Fatal(err)
		}
	}
}
