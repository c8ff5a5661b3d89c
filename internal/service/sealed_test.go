package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/rooted"
	"repro/internal/store"
)

// testSealConfig is a build small enough for every unit test: the k=2
// cycle space, k=1 path space, the smallest rooted space, and the k=1
// grid space.
func testSealConfig() SealConfig {
	return SealConfig{
		CycleKs: []int{2},
		PathKs:  []int{1},
		Rooted:  [][2]int{{1, 1}},
		GridKs:  []int{1},
	}
}

// buildTestSealed builds, saves, and reloads a sealed table, so tests
// exercise the full artifact path rather than an in-memory shortcut.
func buildTestSealed(t *testing.T) *store.SealedTable {
	t.Helper()
	sealed, err := BuildSealed(testSealConfig())
	if err != nil {
		t.Fatalf("BuildSealed: %v", err)
	}
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	if _, err := store.SaveSealed(path, sealed); err != nil {
		t.Fatalf("SaveSealed: %v", err)
	}
	tbl, err := store.LoadSealed(path)
	if err != nil {
		t.Fatalf("LoadSealed: %v", err)
	}
	return tbl
}

func TestBuildSealedCoversConfiguredSpaces(t *testing.T) {
	tbl := buildTestSealed(t)
	sections := tbl.Sections()
	if len(sections) != 4 {
		t.Fatalf("got %d sections, want 4: %+v", len(sections), sections)
	}
	want := map[string]string{
		"cycles/k=2":     enumerate.CycleDomain,
		"paths/k=1":      enumerate.PathDomain,
		"rooted/d=1/k=1": rootedDomain(rooted.DefaultCensusRadius),
		"grid/d=1/k=1":   "decide/grid/1",
	}
	for _, sec := range sections {
		domain, ok := want[sec.Name]
		if !ok {
			t.Errorf("unexpected section %q", sec.Name)
			continue
		}
		if sec.Domain != domain {
			t.Errorf("section %q: domain = %q, want %q", sec.Name, sec.Domain, domain)
		}
		if sec.Entries == 0 {
			t.Errorf("section %q is empty", sec.Name)
		}
	}
	if tbl.Len() == 0 {
		t.Fatal("sealed table is empty")
	}
}

// TestSealedServesBitIdenticalToClassifier is the fallback criterion
// from both directions: for every sealed cycle representative, an
// engine with the table and an engine without it return identical
// verdicts — class, detail JSON, and payload — differing only in the
// serving metadata (Sealed, CacheHit).
func TestSealedServesBitIdenticalToClassifier(t *testing.T) {
	tbl := buildTestSealed(t)
	withSealed := New(Config{Sealed: tbl, DisableObs: true})
	defer withSealed.Close()
	without := New(Config{DisableObs: true})
	defer without.Close()

	requests := []Request{}
	// Every k=2 cycle mask problem (the whole space, not just the sealed
	// representatives: orbit members must resolve to sealed entries).
	pairSpace := uint(1) << uint(enumerate.PairCount(2))
	for n2 := uint(0); n2 < pairSpace; n2++ {
		for e := uint(0); e < pairSpace; e++ {
			requests = append(requests, Request{Mode: ModeCycles, Problem: enumerate.FromMasks(2, n2, e)})
		}
	}
	// A few k=1 path problems and k=1 grid problems.
	requests = append(requests,
		Request{Mode: ModePathsInputs, Problem: enumerate.FromPathMasks(1, 1, 1, 1)},
		Request{Mode: ModePathsInputs, Problem: enumerate.FromPathMasks(1, 0, 0, 0)},
		Request{Mode: ModeGrid, Dims: 1, Problem: enumerate.FromMasks(1, 1, 1)},
		Request{Mode: ModeGrid, Dims: 1, Problem: enumerate.FromMasks(1, 0, 0)},
	)

	hits := 0
	for _, req := range requests {
		a, err := withSealed.Classify(req)
		if err != nil {
			t.Fatalf("%s %s (sealed): %v", req.Mode, req.Problem.Name, err)
		}
		b, err := without.Classify(req)
		if err != nil {
			t.Fatalf("%s %s (classifier): %v", req.Mode, req.Problem.Name, err)
		}
		if a.Sealed {
			hits++
			if !a.CacheHit {
				t.Errorf("%s: sealed response without CacheHit", req.Problem.Name)
			}
		}
		if a.Class != b.Class {
			t.Errorf("%s: class %s (sealed) != %s (classifier)", req.Problem.Name, a.Class, b.Class)
		}
		aj, err := json.Marshal(a.Detail)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(b.Detail)
		if err != nil {
			t.Fatal(err)
		}
		if string(aj) != string(bj) {
			t.Errorf("%s: detail %s (sealed) != %s (classifier)", req.Problem.Name, aj, bj)
		}
		if !reflect.DeepEqual(a.Payload, b.Payload) {
			t.Errorf("%s: payloads differ:\n sealed: %#v\n classifier: %#v", req.Problem.Name, a.Payload, b.Payload)
		}
	}
	if hits != len(requests) {
		t.Errorf("%d of %d requests hit the sealed tier; the whole request set lies in sealed spaces", hits, len(requests))
	}
	if st := without.Stats(); st.Sealed != nil {
		t.Error("engine without a table reports sealed stats")
	}
}

// TestSealedMissFallsThrough drives traffic outside the sealed spaces
// through a sealed-table engine: every request computes normally (no
// panic, no wrong answers), the miss counter advances, and the response
// is not marked sealed.
func TestSealedMissFallsThrough(t *testing.T) {
	tbl := buildTestSealed(t)
	e := New(Config{Sealed: tbl})
	defer e.Close()

	// k=3 cycle problems are outside the sealed k=2 section.
	reqs := []Request{
		{Mode: ModeCycles, Problem: enumerate.FromMasks(3, 5, 9)},
		{Mode: ModeGrid, Dims: 2, Problem: enumerate.FromMasks(2, 1, 1)},
	}
	for _, req := range reqs {
		resp, err := e.Classify(req)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Mode, req.Problem.Name, err)
		}
		if resp.Sealed {
			t.Errorf("%s: marked sealed but lies outside every sealed space", req.Problem.Name)
		}
	}
	st := e.Stats()
	if st.Sealed == nil {
		t.Fatal("Stats.Sealed is nil with a table loaded")
	}
	if st.Sealed.Misses != uint64(len(reqs)) {
		t.Errorf("sealed misses = %d, want %d", st.Sealed.Misses, len(reqs))
	}
	if st.Sealed.Hits != 0 {
		t.Errorf("sealed hits = %d, want 0", st.Sealed.Hits)
	}
	if st.Sealed.Entries != tbl.Len() {
		t.Errorf("stats entries = %d, table has %d", st.Sealed.Entries, tbl.Len())
	}

	// A repeat of a sealed-space request flips the hit counter.
	if resp, err := e.Classify(Request{Mode: ModeCycles, Problem: enumerate.FromMasks(2, 1, 1)}); err != nil {
		t.Fatal(err)
	} else if !resp.Sealed {
		t.Error("sealed-space request did not hit the table")
	}
	if st := e.Stats(); st.Sealed.Hits != 1 {
		t.Errorf("sealed hits = %d after one sealed-space request, want 1", st.Sealed.Hits)
	}
}

// TestSealedCorruptTableIsRefusedNotServed mirrors the lclserver -sealed
// load discipline: a damaged artifact yields a typed error, the engine
// starts without the tier, and serving works classifier-only.
func TestSealedCorruptTableIsRefusedNotServed(t *testing.T) {
	sealed, err := BuildSealed(SealConfig{CycleKs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	if _, err := store.SaveSealed(path, sealed); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in place; the load must fail typed, leaving
	// the operator to start without the tier.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x01
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadSealed(path); !errors.Is(err, store.ErrSealedCorrupt) {
		t.Fatalf("LoadSealed of a damaged table: err = %v, want ErrSealedCorrupt", err)
	}

	e := New(Config{Sealed: nil, DisableObs: true})
	defer e.Close()
	resp, err := e.Classify(Request{Mode: ModeCycles, Problem: enumerate.FromMasks(1, 1, 1)})
	if err != nil {
		t.Fatalf("classifier-only serving failed: %v", err)
	}
	if resp.Sealed {
		t.Error("no table loaded but response marked sealed")
	}
}

// TestSealedLookupZeroAlloc: a sealed hit allocates nothing, from the
// heap-loaded table and from the memory-mapped one alike — the tier's
// whole contract (one hash, one probe, no cache churn).
func TestSealedLookupZeroAlloc(t *testing.T) {
	sealed, err := BuildSealed(testSealConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	if _, err := store.SaveSealed(path, sealed); err != nil {
		t.Fatal(err)
	}
	heap, err := store.LoadSealed(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := store.OpenSealedMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	var keys []uint64
	for _, sec := range sealed.Sections {
		for _, e := range sec.Entries {
			keys = append(keys, memo.Key(sec.Domain, e.Fingerprint))
		}
	}
	for name, tbl := range map[string]*store.SealedTable{"heap": heap, "mmap": mapped} {
		allocs := testing.AllocsPerRun(10, func() {
			for _, k := range keys {
				if _, ok := tbl.Get(k); !ok {
					t.Fatalf("%s: miss on a sealed key", name)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s sealed lookups: %v allocs per sweep, want 0", name, allocs)
		}
	}
}

// BenchmarkSealedLookup measures the sealed hit path against the warm
// memo-cache hit path over the same keys — the tier's reason to exist.
// TestSealedLookupZeroAlloc gates the sealed paths' 0 allocs/op.
func BenchmarkSealedLookup(b *testing.B) {
	sealed, err := BuildSealed(SealConfig{CycleKs: []int{3}})
	if err != nil {
		b.Fatal(err)
	}
	buf, err := store.EncodeSealed(sealed)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := store.OpenSealed(buf)
	if err != nil {
		b.Fatal(err)
	}
	var keys []uint64
	cache := memo.New(0, 0)
	for _, sec := range sealed.Sections {
		for _, e := range sec.Entries {
			k := memo.Key(sec.Domain, e.Fingerprint)
			keys = append(keys, k)
			cache.Put(k, e.Value)
		}
	}

	path := filepath.Join(b.TempDir(), "landscape.lclseal")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		b.Fatal(err)
	}
	mapped, err := store.OpenSealedMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mapped.Close()

	b.Run("sealed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := tbl.Get(keys[i%len(keys)]); !ok {
				b.Fatal("sealed miss on a sealed key")
			}
		}
	})
	b.Run("sealed-mmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := mapped.Get(keys[i%len(keys)]); !ok {
				b.Fatal("mmap miss on a sealed key")
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := cache.Get(keys[i%len(keys)]); !ok {
				b.Fatal("memo miss on a warmed key")
			}
		}
	})
}
