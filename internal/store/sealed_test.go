package store

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/decide"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/rooted"
)

// testSealed builds a small table exercising every sealable kind and
// every aux variant: witnesses present and absent, bad inputs present
// and absent, grid verdicts with and without line/axes payloads.
func testSealed() *Sealed {
	return &Sealed{
		CreatedUnix: 1754600000,
		Sections: []SealedSection{
			{
				Name: "cycles/k=2", Domain: "classify/cycles", Kind: KindCycles,
				Entries: []SealedEntry{
					{Fingerprint: 0x1111, Value: &classify.Result{Class: classify.Global, Period: 3, Witness: "3-coloring witness"}},
					{Fingerprint: 0x0002, Value: &classify.Result{Class: classify.Unsolvable}},
				},
			},
			{
				Name: "paths/k=2", Domain: "classify/paths-inputs", Kind: KindPaths,
				Entries: []SealedEntry{
					{Fingerprint: 0x2222, Value: &classify.InputsResult{SolvableAllInputs: true}},
					{Fingerprint: 0x2223, Value: &classify.InputsResult{BadInput: []int{0, 1, 0}}},
				},
			},
			{
				Name: "rooted/d=2/k=1", Domain: "decide/rooted/1", Kind: KindRooted,
				Entries: []SealedEntry{
					{Fingerprint: 0x3333, Value: &rooted.Verdict{
						Class: decide.Constant, SolvableEverywhere: true, ConstantAnon: true, Radius: 0, MaxRadius: 1,
					}},
					{Fingerprint: 0x3334, Value: &rooted.Verdict{Class: decide.Unsolvable, MaxRadius: 1}},
				},
			},
			{
				Name: "grid/d=1/k=2", Domain: "decide/grid/1", Kind: KindGrid,
				Entries: []SealedEntry{
					{Fingerprint: 0x4444, Value: &grid.Verdict{
						Class: decide.Linear, Dims: 1, Exact: true, Reason: "oriented-cycle reduction",
						Line: &grid.LineResult{Class: "Θ(n)", Period: 2, Witness: "parity"},
						Axes: []grid.AxisResult{
							{Axis: 0, LineResult: grid.LineResult{Class: "Θ(n)", Period: 2, Witness: "parity"}},
							{Axis: 1, LineResult: grid.LineResult{Class: "O(1)", Period: 1}},
						},
					}},
					{Fingerprint: 0x4445, Value: &grid.Verdict{Class: decide.Unknown, Dims: 2, Reason: "no axis verdict"}},
				},
			},
		},
	}
}

func TestSealedRoundTrip(t *testing.T) {
	s := testSealed()
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	n, err := SaveSealed(path, s)
	if err != nil {
		t.Fatalf("SaveSealed: %v", err)
	}
	tbl, err := LoadSealed(path)
	if err != nil {
		t.Fatalf("LoadSealed: %v", err)
	}
	if tbl.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tbl.Len())
	}
	if tbl.SizeBytes() != n {
		t.Errorf("SizeBytes = %d, SaveSealed reported %d", tbl.SizeBytes(), n)
	}
	if tbl.CreatedUnix() != s.CreatedUnix {
		t.Errorf("CreatedUnix = %d, want %d", tbl.CreatedUnix(), s.CreatedUnix)
	}
	if got := len(tbl.Sections()); got != 4 {
		t.Fatalf("Sections = %d, want 4", got)
	}
	for _, sec := range s.Sections {
		for _, e := range sec.Entries {
			v, ok := tbl.Get(memo.Key(sec.Domain, e.Fingerprint))
			if !ok {
				t.Fatalf("section %s: fingerprint %#x missing after round trip", sec.Name, e.Fingerprint)
			}
			if !reflect.DeepEqual(v, e.Value) {
				t.Errorf("section %s fp %#x:\n got %#v\nwant %#v", sec.Name, e.Fingerprint, v, e.Value)
			}
		}
	}
	// Same fingerprint under a different domain must miss: keys are
	// domain-qualified.
	if _, ok := tbl.Get(memo.Key("classify/cycles", 0x2222)); ok {
		t.Error("path fingerprint resolved under the cycles domain")
	}
}

func TestSealedEncodingIsCanonical(t *testing.T) {
	a, err := EncodeSealed(testSealed())
	if err != nil {
		t.Fatal(err)
	}
	// Same landscape with entries listed in a different order encodes to
	// identical bytes (entries are fingerprint-sorted on encode).
	shuffled := testSealed()
	for si := range shuffled.Sections {
		e := shuffled.Sections[si].Entries
		for i, j := 0, len(e)-1; i < j; i, j = i+1, j-1 {
			e[i], e[j] = e[j], e[i]
		}
	}
	b, err := EncodeSealed(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("entry order changed the encoding; sealed tables must be canonical")
	}
}

func TestSealedLoadFailureModes(t *testing.T) {
	valid, err := EncodeSealed(testSealed())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, sealedHeaderSize - 1, sealedHeaderSize + 3, len(valid) - 1} {
			if _, err := OpenSealed(valid[:n]); !errors.Is(err, ErrSealedCorrupt) {
				t.Errorf("truncated to %d bytes: err = %v, want ErrSealedCorrupt", n, err)
			}
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		// An lclsnap1 snapshot is the realistic wrong-file-kind case.
		path := filepath.Join(t.TempDir(), "snap.lclsnap")
		if _, err := Save(path, &Snapshot{CreatedUnix: 1}); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSealed(snap); !errors.Is(err, ErrSealedCorrupt) {
			t.Errorf("snapshot bytes: err = %v, want ErrSealedCorrupt", err)
		}
	})

	t.Run("wrong version", func(t *testing.T) {
		bumped := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(bumped[len(sealedMagic):], SealedVersion+1)
		if _, err := OpenSealed(bumped); !errors.Is(err, ErrSealedVersion) {
			t.Errorf("err = %v, want ErrSealedVersion", err)
		}
	})

	t.Run("checksum mismatch", func(t *testing.T) {
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)-1] ^= 0x01
		if _, err := OpenSealed(flipped); !errors.Is(err, ErrSealedCorrupt) {
			t.Errorf("err = %v, want ErrSealedCorrupt", err)
		}
	})

	t.Run("declared length mismatch", func(t *testing.T) {
		short := append([]byte(nil), valid...)
		binary.BigEndian.PutUint64(short[len(sealedMagic)+16:], uint64(len(valid)))
		if _, err := OpenSealed(short); !errors.Is(err, ErrSealedCorrupt) {
			t.Errorf("err = %v, want ErrSealedCorrupt", err)
		}
	})
}

// reseal recomputes the payload length and checksum after test surgery
// on the payload bytes, so structural validation (not the checksum) is
// what rejects the file.
func reseal(t *testing.T, buf []byte) []byte {
	t.Helper()
	payload := buf[sealedHeaderSize:]
	binary.BigEndian.PutUint64(buf[len(sealedMagic)+16:], uint64(len(payload)))
	h := fnv.New64a()
	h.Write(payload)
	binary.BigEndian.PutUint64(buf[len(sealedMagic)+24:], h.Sum64())
	return buf
}

func TestSealedRejectsUnsortedFingerprints(t *testing.T) {
	// One section, two entries; swap the stored fingerprint words so the
	// array is no longer strictly increasing.
	s := &Sealed{Sections: []SealedSection{{
		Name: "cycles", Domain: "classify/cycles", Kind: KindCycles,
		Entries: []SealedEntry{
			{Fingerprint: 1, Value: &classify.Result{Class: classify.Constant}},
			{Fingerprint: 2, Value: &classify.Result{Class: classify.Constant}},
		},
	}}}
	buf, err := EncodeSealed(s)
	if err != nil {
		t.Fatal(err)
	}
	// The fingerprint array starts after the three length-prefixed
	// strings and the entry count.
	off := sealedHeaderSize
	for i := 0; i < 3; i++ {
		off += 2 + int(binary.BigEndian.Uint16(buf[off:]))
	}
	off += 4
	a := binary.BigEndian.Uint64(buf[off:])
	b := binary.BigEndian.Uint64(buf[off+8:])
	binary.BigEndian.PutUint64(buf[off:], b)
	binary.BigEndian.PutUint64(buf[off+8:], a)
	if _, err := OpenSealed(reseal(t, buf)); !errors.Is(err, ErrSealedCorrupt) {
		t.Errorf("err = %v, want ErrSealedCorrupt for unsorted fingerprints", err)
	}
}

func TestSealedRejectsDuplicateFingerprints(t *testing.T) {
	// Encode-side: a duplicate within one domain is refused outright,
	// even across sections.
	dup := &Sealed{Sections: []SealedSection{
		{Name: "a", Domain: "classify/cycles", Kind: KindCycles,
			Entries: []SealedEntry{{Fingerprint: 7, Value: &classify.Result{}}}},
		{Name: "b", Domain: "classify/cycles", Kind: KindCycles,
			Entries: []SealedEntry{{Fingerprint: 7, Value: &classify.Result{}}}},
	}}
	if _, err := EncodeSealed(dup); err == nil {
		t.Error("EncodeSealed accepted a duplicate fingerprint within a domain")
	}

	// Load-side: two domains whose (domain, fingerprint) pairs collide to
	// the same memo key cannot be crafted cheaply, but the same guard
	// also rejects a byte-identical duplicate section pair, which we can
	// craft by duplicating a valid section's bytes.
	one := &Sealed{Sections: []SealedSection{{
		Name: "a", Domain: "classify/cycles", Kind: KindCycles,
		Entries: []SealedEntry{{Fingerprint: 7, Value: &classify.Result{}}},
	}}}
	buf, err := EncodeSealed(one)
	if err != nil {
		t.Fatal(err)
	}
	section := append([]byte(nil), buf[sealedHeaderSize:]...)
	doubled := append(buf, section...)
	binary.BigEndian.PutUint32(doubled[len(sealedMagic)+12:], 2)
	if _, err := OpenSealed(reseal(t, doubled)); !errors.Is(err, ErrSealedCorrupt) {
		t.Errorf("err = %v, want ErrSealedCorrupt for colliding keys", err)
	}
}

func TestSealedRejectsUnknownKind(t *testing.T) {
	s := &Sealed{Sections: []SealedSection{{
		Name: "t", Domain: "d", Kind: KindTrees,
		Entries: []SealedEntry{{Fingerprint: 1, Value: nil}},
	}}}
	if _, err := EncodeSealed(s); err == nil {
		t.Error("EncodeSealed accepted the unsealable trees kind")
	}
}

func TestSealedRejectsMismatchedValue(t *testing.T) {
	s := &Sealed{Sections: []SealedSection{{
		Name: "c", Domain: "classify/cycles", Kind: KindCycles,
		Entries: []SealedEntry{{Fingerprint: 1, Value: &rooted.Verdict{}}},
	}}}
	if _, err := EncodeSealed(s); err == nil {
		t.Error("EncodeSealed accepted a rooted verdict in a cycles section")
	}
}

func TestSealedGetMissesCleanly(t *testing.T) {
	// A nil table is a permanent miss, not a panic: the serving path
	// calls Get unconditionally.
	var nilTable *SealedTable
	if _, ok := nilTable.Get(42); ok {
		t.Error("nil table reported a hit")
	}

	buf, err := EncodeSealed(testSealed())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := OpenSealed(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Probe a dense range of absent keys: every lookup must terminate at
	// an empty slot (the full-key compare skips occupied colliding slots
	// rather than returning a wrong verdict).
	misses := 0
	for k := uint64(0); k < 100000; k++ {
		if _, ok := tbl.Get(k); !ok {
			misses++
		}
	}
	if misses != 100000 {
		t.Errorf("%d of 100000 absent keys reported hits", 100000-misses)
	}
}

func TestSaveSealedIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	if _, err := SaveSealed(path, testSealed()); err != nil {
		t.Fatal(err)
	}
	// A second save over the same path replaces it without leaving temp
	// siblings behind.
	if _, err := SaveSealed(path, testSealed()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after two saves, want just the table", len(entries))
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", info.Mode().Perm())
	}
}

// TestSealedGetBatch: the batched lookup agrees with per-key Get on
// hits, misses, values, and entry indices; handles nil tables; and
// allocates nothing.
func TestSealedGetBatch(t *testing.T) {
	s := testSealed()
	buf, err := EncodeSealed(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := OpenSealed(buf)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for _, sec := range s.Sections {
		for _, e := range sec.Entries {
			keys = append(keys, memo.Key(sec.Domain, e.Fingerprint))
		}
	}
	// Interleave misses: absent keys and a cross-domain probe.
	keys = append(keys, 42, memo.Key("classify/cycles", 0x2222))
	values := make([]any, len(keys))
	idxs := make([]int32, len(keys))
	hits := tbl.GetBatch(keys, values, idxs)
	if hits != 8 {
		t.Fatalf("batch hit %d of %d keys, want 8", hits, len(keys))
	}
	for i, key := range keys {
		want, ok := tbl.Get(key)
		if ok != (values[i] != nil) || ok != (idxs[i] >= 0) {
			t.Fatalf("key %#x: batch (val=%v idx=%d) disagrees with Get ok=%v", key, values[i], idxs[i], ok)
		}
		if ok && !reflect.DeepEqual(values[i], want) {
			t.Errorf("key %#x: batch value %#v, Get value %#v", key, values[i], want)
		}
	}
	// The entry index addresses a stable slot: probing again yields the
	// same index (engines memoize wrapped verdicts by it).
	idxs2 := make([]int32, len(keys))
	tbl.GetBatch(keys, values, idxs2)
	for i := range idxs {
		if idxs[i] != idxs2[i] {
			t.Fatalf("key %#x: index %d then %d across identical probes", keys[i], idxs[i], idxs2[i])
		}
	}
	// The idxs slice is optional.
	if got := tbl.GetBatch(keys, values, nil); got != 8 {
		t.Fatalf("batch without idxs hit %d, want 8", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tbl.GetBatch(keys, values, idxs)
	}); allocs > 0 {
		t.Errorf("GetBatch allocates %.2f per call, want 0", allocs)
	}

	// Nil table: all misses, values and idxs cleared, no panic.
	var nilTable *SealedTable
	values[0], idxs[0] = "stale", 7
	if got := nilTable.GetBatch(keys, values, idxs); got != 0 {
		t.Fatalf("nil table reported %d hits", got)
	}
	if values[0] != nil || idxs[0] != -1 {
		t.Fatalf("nil table left stale outputs: %v, %d", values[0], idxs[0])
	}
}

// TestSealedCorruptErrorNamesSectionAndOffset pins the load-diagnostic
// contract: a section that fails to decode is reported with its name
// and the byte offset where it starts, not just its index.
func TestSealedCorruptErrorNamesSectionAndOffset(t *testing.T) {
	buf, err := EncodeSealed(testSealed())
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two fingerprints of the second section ("paths/k=2") so
	// the strictly-increasing check fires, and re-stamp the checksum so
	// damage is reached by the section decoder rather than the
	// whole-file checksum.
	idx := strings.Index(string(buf), "paths/k=2")
	if idx < 0 {
		t.Fatal("fixture section name not found in encoding")
	}
	// Section layout after the name: domain (2+len), kind (2+len),
	// count (4), then the fingerprint array.
	off := idx + len("paths/k=2")
	off += 2 + len("classify/paths-inputs")
	off += 2 + len(KindPaths)
	off += 4
	for i := 0; i < 8; i++ {
		buf[off+i], buf[off+8+i] = buf[off+8+i], buf[off+i]
	}
	buf = reseal(t, buf)

	_, err = OpenSealed(buf)
	if !errors.Is(err, ErrSealedCorrupt) {
		t.Fatalf("err = %v, want ErrSealedCorrupt", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, `"paths/k=2"`) {
		t.Errorf("error does not name the failing section: %s", msg)
	}
	if !strings.Contains(msg, "byte offset") {
		t.Errorf("error does not report the section byte offset: %s", msg)
	}
	if !strings.Contains(msg, "not strictly increasing") {
		t.Errorf("error lost the underlying cause: %s", msg)
	}
}
