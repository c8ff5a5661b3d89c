// Shard run files for the sharded sealed-table build.
//
// Each build shard writes its classified entries to a sorted run file
// ("lclrun1": fingerprint-sorted entries with per-entry aux bytes,
// checksummed, written atomically). A resumed build reads the runs that
// survived back into entries with ReadSealedRun, and the artifact
// itself is always written by EncodeSealed (via SaveSealed), so the
// sealed format has one encoder. Run files and the build manifest are
// build-side intermediates, not part of the sealed format (spec'd
// separately in docs/FORMATS.md).

package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
)

const (
	sealedRunMagic = "lclrun1\x00"
	// sealedRunHeaderSize is the magic plus the u32 entry count.
	sealedRunHeaderSize = len(sealedRunMagic) + 4
	// sealedRunEntryHead is one entry's fixed part: u64 fingerprint,
	// u64 verdict word, u32 aux length.
	sealedRunEntryHead = 8 + 8 + 4
)

// ErrRunCorrupt reports a damaged shard run file. Builders treat it
// like a missing run: the shard is simply rebuilt on resume.
var ErrRunCorrupt = errors.New("store: sealed run corrupt")

// WriteSealedRun writes one build shard's classified entries as a
// sorted run file at path (atomically: temp sibling + fsync + rename).
//
// Run format (big-endian):
//
//	offset  size  field
//	0       8     magic "lclrun1\x00"
//	8       4     entry count
//	12      n     entries: u64 fingerprint, u64 verdict word (aux
//	              offset bits zero), u32 aux length, aux bytes
//	12+n    8     FNV-1a 64 checksum of the entry bytes
//
// Duplicate fingerprints within the shard are rejected (a fingerprint
// collision between distinct representatives must fail the build, not
// silently drop a verdict).
func WriteSealedRun(path, kind string, entries []SealedEntry) error {
	sorted := append([]SealedEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Fingerprint < sorted[j].Fingerprint })
	buf := make([]byte, sealedRunHeaderSize, sealedRunHeaderSize+24*len(sorted)+8)
	copy(buf, sealedRunMagic)
	binary.BigEndian.PutUint32(buf[len(sealedRunMagic):], uint32(len(sorted)))
	var aux []byte
	for i, e := range sorted {
		if i > 0 && e.Fingerprint == sorted[i-1].Fingerprint {
			return fmt.Errorf("store: write sealed run: duplicate fingerprint %016x in shard", e.Fingerprint)
		}
		// Pack against an empty aux pool: the word's offset bits stay
		// zero and the aux bytes are private to this entry.
		word, packed, err := packSealedValue(kind, e.Value, aux[:0])
		if err != nil {
			return fmt.Errorf("store: write sealed run: fingerprint %016x: %w", e.Fingerprint, err)
		}
		aux = packed
		if len(aux) > int(^uint32(0)) {
			return fmt.Errorf("store: write sealed run: fingerprint %016x: %d aux bytes overflow the entry", e.Fingerprint, len(aux))
		}
		buf = binary.BigEndian.AppendUint64(buf, e.Fingerprint)
		buf = binary.BigEndian.AppendUint64(buf, word)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(aux)))
		buf = append(buf, aux...)
	}
	h := fnv.New64a()
	h.Write(buf[sealedRunHeaderSize:])
	buf = binary.BigEndian.AppendUint64(buf, h.Sum64())
	if err := WriteFileAtomic(path, buf); err != nil {
		return fmt.Errorf("store: write sealed run: %w", err)
	}
	return nil
}

// ReadSealedRun reads the run file at path back into its entries, in
// fingerprint order. It checks the magic, the entry count, strictly
// increasing fingerprints and the checksum, and decodes every verdict
// word against kind; an entry must also re-encode to exactly its own
// word and aux bytes, so a resumed build seals the bytes a fresh one
// would. Any failure is ErrRunCorrupt, and resume rebuilds the shard.
func ReadSealedRun(path, kind string) ([]SealedEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrRunCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(raw) < sealedRunHeaderSize+8 {
		return nil, corrupt("%d bytes is shorter than header and checksum", len(raw))
	}
	if string(raw[:len(sealedRunMagic)]) != sealedRunMagic {
		return nil, corrupt("bad magic")
	}
	body := raw[sealedRunHeaderSize : len(raw)-8]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.BigEndian.Uint64(raw[len(raw)-8:]) {
		return nil, corrupt("checksum mismatch")
	}
	count := int(binary.BigEndian.Uint32(raw[len(sealedRunMagic):]))
	if count > len(body)/sealedRunEntryHead {
		return nil, corrupt("%d entries declared, %d body bytes", count, len(body))
	}
	entries := make([]SealedEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < sealedRunEntryHead {
			return nil, corrupt("truncated entry %d", i)
		}
		fp := binary.BigEndian.Uint64(body)
		if i > 0 && fp <= entries[i-1].Fingerprint {
			return nil, corrupt("fingerprints not strictly increasing at entry %d", i)
		}
		word := binary.BigEndian.Uint64(body[8:])
		auxLen := int(binary.BigEndian.Uint32(body[16:]))
		body = body[sealedRunEntryHead:]
		if len(body) < auxLen {
			return nil, corrupt("truncated aux for entry %d", i)
		}
		aux := body[:auxLen]
		body = body[auxLen:]
		v, err := unpackSealedValue(kind, word, aux, false)
		if err != nil {
			return nil, corrupt("entry %d (fingerprint %016x): %v", i, fp, err)
		}
		if w, a, err := packSealedValue(kind, v, nil); err != nil || w != word || !bytes.Equal(a, aux) {
			return nil, corrupt("entry %d (fingerprint %016x) does not re-encode to its own bytes", i, fp)
		}
		entries = append(entries, SealedEntry{Fingerprint: fp, Value: v})
	}
	if len(body) != 0 {
		return nil, corrupt("%d bytes after the last entry", len(body))
	}
	return entries, nil
}
