package store

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// resealRun re-stamps a run file's trailing checksum, so damage is
// reached by ReadSealedRun's decoder rather than its checksum test.
func resealRun(b []byte) []byte {
	h := fnv.New64a()
	h.Write(b[sealedRunHeaderSize : len(b)-8])
	binary.BigEndian.PutUint64(b[len(b)-8:], h.Sum64())
	return b
}

func TestSealedRunRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	for _, sec := range testSealed().Sections {
		path := filepath.Join(dir, sec.Kind+".lclrun")
		if err := WriteSealedRun(path, sec.Kind, sec.Entries); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSealedRun(path, sec.Kind)
		if err != nil {
			t.Fatalf("%s: ReadSealedRun: %v", sec.Name, err)
		}
		want := append([]SealedEntry(nil), sec.Entries...)
		sort.Slice(want, func(i, j int) bool { return want[i].Fingerprint < want[j].Fingerprint })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: read back %+v, want %+v", sec.Name, got, want)
		}
	}

	// The cycles run, fingerprint-sorted: entry 0 is 0x0002
	// (Unsolvable, no aux), its verdict word at bytes 20..27.
	sec := testSealed().Sections[0]
	path := filepath.Join(dir, sec.Kind+".lclrun")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		p := filepath.Join(dir, name+".lclrun")
		if err := os.WriteFile(p, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSealedRun(p, sec.Kind); !errors.Is(err, ErrRunCorrupt) {
			t.Errorf("%s: err = %v, want ErrRunCorrupt", name, err)
		}
	}
	corrupt("truncated-header", func(b []byte) []byte { return b[:4] })
	corrupt("truncated-body", func(b []byte) []byte { return b[:len(b)-9] })
	corrupt("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("flipped-bit", func(b []byte) []byte { b[len(b)-12] ^= 0x01; return b })
	corrupt("trailing-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) })
	corrupt("count-too-large", func(b []byte) []byte { b[11]++; return b })
	// Checksum-valid damage: only decoding the verdicts catches these.
	corrupt("class-out-of-range", func(b []byte) []byte { b[27] = 0xff; return resealRun(b) })
	corrupt("stray-word-bit", func(b []byte) []byte { b[24] |= 0x02; return resealRun(b) })
	corrupt("aux-offset-set", func(b []byte) []byte { b[23] = 1; return resealRun(b) })
	corrupt("unsorted", func(b []byte) []byte { b[12] = 0xff; return resealRun(b) })
	if _, err := ReadSealedRun(path, KindPaths); !errors.Is(err, ErrRunCorrupt) {
		t.Errorf("cycles run read as paths: err = %v, want ErrRunCorrupt", err)
	}
}

func TestSealedRunRejectsDuplicateInShard(t *testing.T) {
	s := testSealed()
	sec := s.Sections[0]
	dup := append(append([]SealedEntry(nil), sec.Entries...), sec.Entries[0])
	err := WriteSealedRun(filepath.Join(t.TempDir(), "dup.lclrun"), sec.Kind, dup)
	if err == nil || !strings.Contains(err.Error(), "duplicate fingerprint") {
		t.Fatalf("err = %v, want duplicate-fingerprint rejection", err)
	}
}

// TestEncodeSealedRejectsCrossShardDuplicates: a section is the
// concatenation of its shards' entries, so a fingerprint two shards
// both produced must fail the encode.
func TestEncodeSealedRejectsCrossShardDuplicates(t *testing.T) {
	sec := testSealed().Sections[0]
	sec.Entries = append(append([]SealedEntry(nil), sec.Entries...), sec.Entries...)
	_, err := EncodeSealed(&Sealed{Sections: []SealedSection{sec}})
	if err == nil || !strings.Contains(err.Error(), "duplicate fingerprint") {
		t.Fatalf("err = %v, want cross-shard duplicate rejection", err)
	}
}

// TestEncodeSealedRejectsSharedDomainDuplicates: two sections sealed
// under one memo domain must not repeat a fingerprint.
func TestEncodeSealedRejectsSharedDomainDuplicates(t *testing.T) {
	sec := testSealed().Sections[2] // rooted — the kind that genuinely shares domains
	a, b := sec, sec
	a.Name, b.Name = "rooted/d=1/k=1", "rooted/d=2/k=1"
	_, err := EncodeSealed(&Sealed{Sections: []SealedSection{a, b}})
	if err == nil || !strings.Contains(err.Error(), "duplicate fingerprint") {
		t.Fatalf("err = %v, want shared-domain duplicate rejection", err)
	}
}
