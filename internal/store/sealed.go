// The sealed landscape table: a second, read-only artifact kind next to
// the "lclsnap1" snapshot. Where a snapshot persists whatever warm state
// one engine happened to accumulate, a sealed table is the *entire*
// classified landscape of the finite mask spaces the paper proves
// decidable — built once by `lcltool seal`, loaded read-only by
// `lclserver -sealed`, and consulted before the memo cache: a hit is one
// hash and one probe, no locks, no LRU bump, no allocation.
//
// File format (all integers big-endian; see docs/FORMATS.md for the
// byte-level spec):
//
//	offset  size  field
//	0       8     magic "lclseal1"
//	8       4     format version (currently 1)
//	12      8     created-unix seconds
//	20      4     section count
//	24      8     payload length in bytes
//	32      8     FNV-1a 64 checksum of the payload
//	40      n     payload: sections, back to back
//
// Each section covers one sealed problem space (one memo domain + value
// kind) and stores its entries fingerprint-sorted: a count, the sorted
// fingerprint array, one packed 64-bit verdict word per entry, and an
// auxiliary byte pool for the variable-length verdict parts (witness
// strings, bad-input sequences, lattice-class spellings). Sorting makes
// the encoding canonical — identical landscapes encode to identical
// bytes — and lets the loader reject duplicate fingerprints in O(n).
//
// Loads are paranoid the same way snapshot loads are: truncation, bad
// magic, checksum mismatches, undecodable sections, out-of-range
// classes, and duplicate or colliding keys are all typed errors
// (ErrSealedCorrupt, ErrSealedVersion), so callers fall back to the
// classifier path instead of serving garbage.

package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/classify"
	"repro/internal/decide"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/rooted"
)

// SealedVersion is the current sealed-table format version. LoadSealed
// rejects files written at any other version with ErrSealedVersion.
const SealedVersion = 1

const (
	sealedMagic      = "lclseal1"
	sealedHeaderSize = len(sealedMagic) + 4 + 8 + 4 + 8 + 8
)

// Typed sealed-table load failures, mirroring ErrCorrupt/ErrVersion.
// Both mean "serve without the sealed tier"; they are distinct so
// operators can tell damaged artifacts from stale ones.
var (
	// ErrSealedCorrupt reports a sealed table that is structurally
	// damaged: truncated, checksum mismatch, bad magic, undecodable
	// sections, or duplicate/colliding keys.
	ErrSealedCorrupt = errors.New("store: sealed table corrupt")
	// ErrSealedVersion reports a sealed table written at a different
	// format version.
	ErrSealedVersion = errors.New("store: sealed table version mismatch")
)

// Sealed is the builder-side form of a sealed landscape table: what
// `lcltool seal` (service.BuildSealed) assembles before SaveSealed
// packs it.
type Sealed struct {
	// CreatedUnix is the build time in Unix seconds.
	CreatedUnix int64
	// Sections holds one sealed problem space each.
	Sections []SealedSection
}

// SealedSection is one sealed problem space: every orbit representative
// of one finite mask space, classified, under one memo domain.
type SealedSection struct {
	// Name labels the space for humans ("cycles/k=3").
	Name string
	// Domain is the memo key domain the entries are keyed under — the
	// same domain the serving decider uses, so sealed keys and cache
	// keys coincide.
	Domain string
	// Kind selects the verdict payload encoding: KindCycles, KindPaths,
	// KindRooted, or KindGrid (KindTrees has no finite mask space and
	// cannot be sealed).
	Kind string
	// Entries maps each representative's fingerprint to its verdict.
	Entries []SealedEntry
}

// SealedEntry is one classified orbit representative. Value must match
// the section kind: *classify.Result (KindCycles), *classify.InputsResult
// (KindPaths), *rooted.Verdict (KindRooted), or *grid.Verdict (KindGrid).
type SealedEntry struct {
	Fingerprint uint64
	Value       any
}

// SealedSectionInfo describes one loaded section for stats surfaces.
type SealedSectionInfo struct {
	Name    string `json:"name"`
	Domain  string `json:"domain"`
	Kind    string `json:"kind"`
	Entries int    `json:"entries"`
}

// SealedTable is a loaded sealed landscape table: an immutable
// open-addressed hash table from memo keys (memo.Key over each
// section's domain and entry fingerprint — the exact keys the serving
// path computes anyway) to pre-materialized verdict values. All methods
// are safe for concurrent use and nil-receiver safe; Get performs no
// locking and no allocation.
type SealedTable struct {
	createdUnix int64
	sizeBytes   int
	sections    []SealedSectionInfo
	// keys and values are parallel; slots holds indices into them
	// (-1 = empty) in a power-of-two open-addressed table with linear
	// probing at load factor <= 0.5.
	keys   []uint64
	values []any
	slots  []int32
	mask   uint64
	// mapped holds the mmap'd artifact for tables opened by
	// OpenSealedMapped (nil otherwise); value strings alias it, so it
	// lives until Close.
	mapped []byte
}

// Get returns the sealed verdict stored under key (a memo.Key), if any.
// The returned value is shared and must be treated as immutable — the
// same contract memo cache values have. A nil or empty table misses.
func (t *SealedTable) Get(key uint64) (any, bool) {
	if t == nil || len(t.slots) == 0 {
		return nil, false
	}
	i := sealedMix(key) & t.mask
	for {
		s := t.slots[i]
		if s < 0 {
			return nil, false
		}
		// Full-key compare: a slot collision between distinct keys probes
		// on instead of serving the wrong verdict.
		if t.keys[s] == key {
			return t.values[s], true
		}
		i = (i + 1) & t.mask
	}
}

// GetBatch probes every key in one call, writing each hit's value into
// values[i] (nil on a miss) and, when idxs is non-nil, the hit's stable
// entry index in [0, Len()) into idxs[i] (-1 on a miss), returning the
// hit count. Like Get it is lock-free and allocation-free; values and
// idxs must be at least as long as keys. Callers that sort keys first
// (the batch serving pipeline sorts its deduplicated fingerprint set)
// probe in a deterministic fingerprint-sorted order. Entry indices are
// stable for the table's lifetime, so layers above can cache per-entry
// derived state (internal/service memoizes wrapped verdicts by them).
func (t *SealedTable) GetBatch(keys []uint64, values []any, idxs []int32) int {
	_ = values[:len(keys)]
	if idxs != nil {
		_ = idxs[:len(keys)]
	}
	if t == nil || len(t.slots) == 0 {
		for i := range keys {
			values[i] = nil
			if idxs != nil {
				idxs[i] = -1
			}
		}
		return 0
	}
	hits := 0
	for j, key := range keys {
		values[j] = nil
		if idxs != nil {
			idxs[j] = -1
		}
		i := sealedMix(key) & t.mask
		for {
			s := t.slots[i]
			if s < 0 {
				break
			}
			// Full-key compare, exactly as Get: slot collisions probe on
			// instead of serving the wrong verdict.
			if t.keys[s] == key {
				values[j] = t.values[s]
				if idxs != nil {
					idxs[j] = s
				}
				hits++
				break
			}
			i = (i + 1) & t.mask
		}
	}
	return hits
}

// Len returns the number of sealed entries.
func (t *SealedTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.keys)
}

// SizeBytes returns the on-disk artifact size the table was loaded from.
func (t *SealedTable) SizeBytes() int {
	if t == nil {
		return 0
	}
	return t.sizeBytes
}

// CreatedUnix returns the artifact's build time in Unix seconds.
func (t *SealedTable) CreatedUnix() int64 {
	if t == nil {
		return 0
	}
	return t.createdUnix
}

// Sections returns per-section entry counts (shared; do not mutate).
func (t *SealedTable) Sections() []SealedSectionInfo {
	if t == nil {
		return nil
	}
	return t.sections
}

// sealedMix is the splitmix64 finalizer (the same mixer the memo cache
// applies before sharding), spreading memo keys across the probe table.
func sealedMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EncodeSealed packs the sealed table into its canonical byte encoding:
// entries are sorted by fingerprint per section, so identical landscapes
// encode to identical bytes. It rejects duplicate fingerprints within a
// memo domain (two verdicts for one problem would make lookups
// ambiguous), unknown section kinds, and values that do not match their
// section kind.
func EncodeSealed(s *Sealed) ([]byte, error) {
	if len(s.Sections) > int(^uint32(0)) {
		return nil, fmt.Errorf("store: encode sealed: %d sections overflow the header", len(s.Sections))
	}
	seen := map[string]map[uint64]bool{}
	var payload []byte
	for si := range s.Sections {
		sec := &s.Sections[si]
		fps := seen[sec.Domain]
		if fps == nil {
			fps = map[uint64]bool{}
			seen[sec.Domain] = fps
		}
		sorted := append([]SealedEntry(nil), sec.Entries...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Fingerprint < sorted[j].Fingerprint })
		for _, e := range sorted {
			if fps[e.Fingerprint] {
				return nil, fmt.Errorf("store: encode sealed: section %q: duplicate fingerprint %016x in domain %q",
					sec.Name, e.Fingerprint, sec.Domain)
			}
			fps[e.Fingerprint] = true
		}
		var err error
		payload, err = appendSealedSection(payload, sec, sorted)
		if err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, sealedHeaderSize+len(payload))
	buf = append(buf, sealedMagic...)
	buf = binary.BigEndian.AppendUint32(buf, SealedVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.CreatedUnix))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Sections)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	h := fnv.New64a()
	h.Write(payload)
	buf = binary.BigEndian.AppendUint64(buf, h.Sum64())
	return append(buf, payload...), nil
}

// SaveSealed encodes the table and writes it to path atomically (temp
// file + fsync + rename, like Save), returning the file size in bytes.
func SaveSealed(path string, s *Sealed) (int, error) {
	buf, err := EncodeSealed(s)
	if err != nil {
		return 0, err
	}
	if err := WriteFileAtomic(path, buf); err != nil {
		return 0, fmt.Errorf("store: save sealed table: %w", err)
	}
	return len(buf), nil
}

// LoadSealed reads, verifies, and indexes a sealed table. Damage is
// reported as ErrSealedCorrupt and a foreign format version as
// ErrSealedVersion (both via errors.Is); a missing file surfaces as the
// underlying fs error (os.IsNotExist).
func LoadSealed(path string) (*SealedTable, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return OpenSealed(raw)
}

// OpenSealed is LoadSealed over bytes already in memory (a test
// fixture, a downloaded blob). The table copies what it keeps, so raw
// may be released afterwards. OpenSealedMapped is the zero-copy
// variant over a memory-mapped artifact.
func OpenSealed(raw []byte) (*SealedTable, error) {
	return openSealed(raw, false)
}

// openSealed decodes and indexes a sealed artifact. With zeroCopy set,
// decoded strings (witnesses, reasons, section labels) alias raw
// instead of being copied — raw must then outlive the table (the
// mmap-backed loader guarantees this by keeping the mapping until
// Close).
func openSealed(raw []byte, zeroCopy bool) (*SealedTable, error) {
	if len(raw) < sealedHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrSealedCorrupt, len(raw), sealedHeaderSize)
	}
	if string(raw[:len(sealedMagic)]) != sealedMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSealedCorrupt, raw[:len(sealedMagic)])
	}
	off := len(sealedMagic)
	version := binary.BigEndian.Uint32(raw[off:])
	if version != SealedVersion {
		return nil, fmt.Errorf("%w: file version %d, supported version %d", ErrSealedVersion, version, SealedVersion)
	}
	created := int64(binary.BigEndian.Uint64(raw[off+4:]))
	sections := binary.BigEndian.Uint32(raw[off+12:])
	length := binary.BigEndian.Uint64(raw[off+16:])
	sum := binary.BigEndian.Uint64(raw[off+24:])
	payload := raw[sealedHeaderSize:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload is %d bytes, header declares %d", ErrSealedCorrupt, len(payload), length)
	}
	h := fnv.New64a()
	h.Write(payload)
	if got := h.Sum64(); got != sum {
		return nil, fmt.Errorf("%w: checksum %016x, header declares %016x", ErrSealedCorrupt, got, sum)
	}

	t := &SealedTable{createdUnix: created, sizeBytes: len(raw)}
	for si := uint32(0); si < sections; si++ {
		// The absolute file offset where this section starts — carried
		// into corruption errors so operators can find the damage with a
		// hex dump instead of re-deriving section extents by hand.
		secOff := len(raw) - len(payload)
		name, rest, err := t.readSection(payload, zeroCopy)
		if err != nil {
			if name == "" {
				name = "?"
			}
			return nil, fmt.Errorf("%w: section %d (%q) at byte offset %d: %v", ErrSealedCorrupt, si, name, secOff, err)
		}
		payload = rest
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes after the declared sections", ErrSealedCorrupt, len(payload))
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}

// index builds the open-addressed probe table over the decoded entries.
// A duplicate memo key — whether a duplicated entry or a genuine
// fingerprint collision across domains — is rejected: an ambiguous
// table must not load.
func (t *SealedTable) index() error {
	slots := 2
	for slots < 2*len(t.keys) {
		slots <<= 1
	}
	t.slots = make([]int32, slots)
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.mask = uint64(slots - 1)
	for idx, key := range t.keys {
		i := sealedMix(key) & t.mask
		for t.slots[i] >= 0 {
			if t.keys[t.slots[i]] == key {
				return fmt.Errorf("%w: duplicate memo key %016x (fingerprint collision)", ErrSealedCorrupt, key)
			}
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(idx)
	}
	return nil
}

// ---------------------------------------------------------------------
// section encoding

// appendSealedSection encodes one section: length-prefixed name, domain,
// and kind strings, the entry count, the sorted fingerprint array, the
// packed verdict words, and the aux pool.
func appendSealedSection(buf []byte, sec *SealedSection, sorted []SealedEntry) ([]byte, error) {
	switch sec.Kind {
	case KindCycles, KindPaths, KindRooted, KindGrid:
	default:
		return nil, fmt.Errorf("store: encode sealed: section %q: kind %q is not sealable", sec.Name, sec.Kind)
	}
	var err error
	for _, label := range []string{sec.Name, sec.Domain, sec.Kind} {
		buf, err = appendSealedString(buf, label)
		if err != nil {
			return nil, fmt.Errorf("store: encode sealed: section %q: %w", sec.Name, err)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(sorted)))
	for _, e := range sorted {
		buf = binary.BigEndian.AppendUint64(buf, e.Fingerprint)
	}
	var aux []byte
	for _, e := range sorted {
		word, packed, err := packSealedValue(sec.Kind, e.Value, aux)
		if err != nil {
			return nil, fmt.Errorf("store: encode sealed: section %q: fingerprint %016x: %w", sec.Name, e.Fingerprint, err)
		}
		aux = packed
		buf = binary.BigEndian.AppendUint64(buf, word)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(aux)))
	return append(buf, aux...), nil
}

// readSection decodes one section off the front of payload, appending
// its entries (keys pre-computed via memo.Key, values materialized) to
// the table, and returns the remaining payload. The section name is
// returned even on failure (best-effort) so load errors can identify
// which section was damaged. With zeroCopy set, the fingerprint and
// word arrays are decoded straight out of payload and value strings
// alias it.
func (t *SealedTable) readSection(payload []byte, zeroCopy bool) (string, []byte, error) {
	name, payload, err := takeSealedString(payload, zeroCopy)
	if err != nil {
		return "", nil, fmt.Errorf("name: %w", err)
	}
	domain, payload, err := takeSealedString(payload, zeroCopy)
	if err != nil {
		return name, nil, fmt.Errorf("domain: %w", err)
	}
	kind, payload, err := takeSealedString(payload, zeroCopy)
	if err != nil {
		return name, nil, fmt.Errorf("kind: %w", err)
	}
	switch kind {
	case KindCycles, KindPaths, KindRooted, KindGrid:
	default:
		return name, nil, fmt.Errorf("unknown kind %q", kind)
	}
	if len(payload) < 4 {
		return name, nil, fmt.Errorf("truncated entry count")
	}
	count := int(binary.BigEndian.Uint32(payload))
	payload = payload[4:]
	if uint64(len(payload)) < uint64(count)*16 {
		return name, nil, fmt.Errorf("%d entries declared, %d bytes remain", count, len(payload))
	}
	fpBytes := payload[:8*count]
	payload = payload[8*count:]
	wordBytes := payload[:8*count]
	payload = payload[8*count:]
	if len(payload) < 4 {
		return name, nil, fmt.Errorf("truncated aux pool length")
	}
	auxLen := int(binary.BigEndian.Uint32(payload))
	payload = payload[4:]
	if len(payload) < auxLen {
		return name, nil, fmt.Errorf("aux pool declares %d bytes, %d remain", auxLen, len(payload))
	}
	aux := payload[:auxLen]
	// count is bounded by the payload checked above, so the arrays can be
	// sized for the whole section up front.
	t.keys = slices.Grow(t.keys, count)
	t.values = slices.Grow(t.values, count)
	var prev uint64
	for i := 0; i < count; i++ {
		fp := binary.BigEndian.Uint64(fpBytes[8*i:])
		if i > 0 && fp <= prev {
			return name, nil, fmt.Errorf("fingerprints not strictly increasing at entry %d", i)
		}
		prev = fp
		word := binary.BigEndian.Uint64(wordBytes[8*i:])
		v, err := unpackSealedValue(kind, word, aux, zeroCopy)
		if err != nil {
			return name, nil, fmt.Errorf("entry %d (fingerprint %016x): %w", i, fp, err)
		}
		t.keys = append(t.keys, memo.Key(domain, fp))
		t.values = append(t.values, v)
	}
	t.sections = append(t.sections, SealedSectionInfo{Name: name, Domain: domain, Kind: kind, Entries: count})
	return name, payload[auxLen:], nil
}

// ---------------------------------------------------------------------
// verdict packing
//
// Each entry is one 64-bit word; variable-length parts live in the
// section's aux pool at the offset stored in the word's top 32 bits.
// Layouts (bit 0 = least significant):
//
//	cycles: 0-7 classify.Class, 8-23 period, 24 has-witness,
//	        32-63 aux offset (witness string)
//	paths:  0 solvable-all-inputs, 1 has-bad-input,
//	        32-63 aux offset (bad input: uvarint count + uvarint ids)
//	rooted: 0 solvable-everywhere, 1 constant-anon, 8-15 radius,
//	        16-23 max radius, 32-63 aux offset (lattice class string)
//	grid:   0 exact, 1 has-line, 8-15 dims, 32-63 aux offset
//	        (lattice class string, reason string, line if has-line,
//	        uvarint axis count + axes)
//
// Lattice classes travel as their canonical String spelling and are
// re-validated by decide.ParseClass on load; cycle classes are small
// enums packed directly and range-checked.

func packSealedValue(kind string, value any, aux []byte) (uint64, []byte, error) {
	auxOff := uint64(len(aux))
	if auxOff > uint64(^uint32(0)) {
		return 0, nil, fmt.Errorf("aux pool overflows 32-bit offsets")
	}
	switch kind {
	case KindCycles:
		v, ok := value.(*classify.Result)
		if !ok {
			return 0, nil, fmt.Errorf("kind %q with value %T", kind, value)
		}
		if v.Class < classify.Unsolvable || v.Class > classify.Global {
			return 0, nil, fmt.Errorf("cycle class %d out of range", int(v.Class))
		}
		if v.Period < 0 || v.Period > int(^uint16(0)) {
			return 0, nil, fmt.Errorf("period %d out of range", v.Period)
		}
		word := uint64(v.Class) | uint64(v.Period)<<8
		if v.Witness != "" {
			word |= 1 << 24
			var err error
			aux, err = appendSealedString(aux, v.Witness)
			if err != nil {
				return 0, nil, err
			}
		}
		return word | auxOff<<32, aux, nil

	case KindPaths:
		v, ok := value.(*classify.InputsResult)
		if !ok {
			return 0, nil, fmt.Errorf("kind %q with value %T", kind, value)
		}
		var word uint64
		if v.SolvableAllInputs {
			word |= 1
		}
		if len(v.BadInput) > 0 {
			word |= 2
			aux = binary.AppendUvarint(aux, uint64(len(v.BadInput)))
			for _, id := range v.BadInput {
				if id < 0 {
					return 0, nil, fmt.Errorf("negative bad-input id %d", id)
				}
				aux = binary.AppendUvarint(aux, uint64(id))
			}
		}
		return word | auxOff<<32, aux, nil

	case KindRooted:
		v, ok := value.(*rooted.Verdict)
		if !ok {
			return 0, nil, fmt.Errorf("kind %q with value %T", kind, value)
		}
		if err := checkByteRange("radius", v.Radius); err != nil {
			return 0, nil, err
		}
		if err := checkByteRange("max radius", v.MaxRadius); err != nil {
			return 0, nil, err
		}
		var word uint64
		if v.SolvableEverywhere {
			word |= 1
		}
		if v.ConstantAnon {
			word |= 2
		}
		word |= uint64(v.Radius) << 8
		word |= uint64(v.MaxRadius) << 16
		aux, err := appendSealedString(aux, v.Class.String())
		if err != nil {
			return 0, nil, err
		}
		return word | auxOff<<32, aux, nil

	case KindGrid:
		v, ok := value.(*grid.Verdict)
		if !ok {
			return 0, nil, fmt.Errorf("kind %q with value %T", kind, value)
		}
		if err := checkByteRange("dims", v.Dims); err != nil {
			return 0, nil, err
		}
		var word uint64
		if v.Exact {
			word |= 1
		}
		if v.Line != nil {
			word |= 2
		}
		word |= uint64(v.Dims) << 8
		var err error
		if aux, err = appendSealedString(aux, v.Class.String()); err != nil {
			return 0, nil, err
		}
		if aux, err = appendSealedString(aux, v.Reason); err != nil {
			return 0, nil, err
		}
		if v.Line != nil {
			if aux, err = appendSealedLine(aux, v.Line); err != nil {
				return 0, nil, err
			}
		}
		aux = binary.AppendUvarint(aux, uint64(len(v.Axes)))
		for _, ax := range v.Axes {
			if ax.Axis < 0 {
				return 0, nil, fmt.Errorf("negative axis index %d", ax.Axis)
			}
			aux = binary.AppendUvarint(aux, uint64(ax.Axis))
			if aux, err = appendSealedLine(aux, &ax.LineResult); err != nil {
				return 0, nil, err
			}
		}
		return word | auxOff<<32, aux, nil
	}
	return 0, nil, fmt.Errorf("kind %q is not sealable", kind)
}

func unpackSealedValue(kind string, word uint64, aux []byte, zeroCopy bool) (any, error) {
	auxOff := int(word >> 32)
	if auxOff > len(aux) {
		return nil, fmt.Errorf("aux offset %d past pool of %d bytes", auxOff, len(aux))
	}
	rest := aux[auxOff:]
	switch kind {
	case KindCycles:
		class := classify.Class(word & 0xff)
		if class < classify.Unsolvable || class > classify.Global {
			return nil, fmt.Errorf("cycle class %d out of range", int(class))
		}
		v := &classify.Result{Class: class, Period: int(word >> 8 & 0xffff)}
		if word&(1<<24) != 0 {
			var err error
			v.Witness, _, err = takeSealedString(rest, zeroCopy)
			if err != nil {
				return nil, fmt.Errorf("witness: %w", err)
			}
		}
		return v, nil

	case KindPaths:
		v := &classify.InputsResult{SolvableAllInputs: word&1 != 0}
		if word&2 != 0 {
			n, rest, err := readSealedUvarint(rest)
			if err != nil {
				return nil, fmt.Errorf("bad-input count: %w", err)
			}
			if n > uint64(len(rest)) {
				return nil, fmt.Errorf("bad-input count %d exceeds the aux pool", n)
			}
			v.BadInput = make([]int, n)
			for i := range v.BadInput {
				var id uint64
				id, rest, err = readSealedUvarint(rest)
				if err != nil {
					return nil, fmt.Errorf("bad-input id %d: %w", i, err)
				}
				v.BadInput[i] = int(id)
			}
		}
		return v, nil

	case KindRooted:
		spelled, _, err := takeSealedString(rest, false) // parsed, not retained
		if err != nil {
			return nil, fmt.Errorf("class: %w", err)
		}
		class, err := decide.ParseClass(spelled)
		if err != nil {
			return nil, err
		}
		return &rooted.Verdict{
			Class:              class,
			SolvableEverywhere: word&1 != 0,
			ConstantAnon:       word&2 != 0,
			Radius:             int(word >> 8 & 0xff),
			MaxRadius:          int(word >> 16 & 0xff),
		}, nil

	case KindGrid:
		spelled, rest, err := takeSealedString(rest, false)
		if err != nil {
			return nil, fmt.Errorf("class: %w", err)
		}
		class, err := decide.ParseClass(spelled)
		if err != nil {
			return nil, err
		}
		v := &grid.Verdict{
			Class: class,
			Dims:  int(word >> 8 & 0xff),
			Exact: word&1 != 0,
		}
		if v.Reason, rest, err = takeSealedString(rest, zeroCopy); err != nil {
			return nil, fmt.Errorf("reason: %w", err)
		}
		if word&2 != 0 {
			if v.Line, rest, err = readSealedLine(rest, zeroCopy); err != nil {
				return nil, fmt.Errorf("line: %w", err)
			}
		}
		n, rest, err := readSealedUvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("axis count: %w", err)
		}
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("axis count %d exceeds the aux pool", n)
		}
		for i := uint64(0); i < n; i++ {
			var axis uint64
			if axis, rest, err = readSealedUvarint(rest); err != nil {
				return nil, fmt.Errorf("axis %d index: %w", i, err)
			}
			var line *grid.LineResult
			if line, rest, err = readSealedLine(rest, zeroCopy); err != nil {
				return nil, fmt.Errorf("axis %d: %w", i, err)
			}
			v.Axes = append(v.Axes, grid.AxisResult{Axis: int(axis), LineResult: *line})
		}
		return v, nil
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

func appendSealedLine(aux []byte, l *grid.LineResult) ([]byte, error) {
	var err error
	if aux, err = appendSealedString(aux, l.Class); err != nil {
		return nil, err
	}
	if l.Period < 0 {
		return nil, fmt.Errorf("negative line period %d", l.Period)
	}
	aux = binary.AppendUvarint(aux, uint64(l.Period))
	return appendSealedString(aux, l.Witness)
}

func readSealedLine(b []byte, zeroCopy bool) (*grid.LineResult, []byte, error) {
	l := &grid.LineResult{}
	var err error
	if l.Class, b, err = takeSealedString(b, zeroCopy); err != nil {
		return nil, nil, err
	}
	var period uint64
	if period, b, err = readSealedUvarint(b); err != nil {
		return nil, nil, err
	}
	l.Period = int(period)
	if l.Witness, b, err = takeSealedString(b, zeroCopy); err != nil {
		return nil, nil, err
	}
	return l, b, nil
}

func appendSealedString(b []byte, s string) ([]byte, error) {
	if len(s) > int(^uint16(0)) {
		return nil, fmt.Errorf("string of %d bytes overflows the 16-bit length prefix", len(s))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// takeSealedString reads one length-prefixed string off the front of b.
// With zeroCopy set the returned string aliases b's backing array
// instead of copying it. Only the mmap-backed loader sets zeroCopy —
// the mapping is PROT_READ and outlives the table, so the aliased
// strings are immutable and stay valid until SealedTable.Close.
func takeSealedString(b []byte, zeroCopy bool) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("truncated string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("string declares %d bytes, %d remain", n, len(b))
	}
	if zeroCopy && n > 0 {
		return unsafe.String(&b[0], n), b[n:], nil
	}
	return string(b[:n]), b[n:], nil
}

func readSealedUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated or malformed uvarint")
	}
	return v, b[n:], nil
}

func checkByteRange(what string, v int) error {
	if v < 0 || v > 0xff {
		return fmt.Errorf("%s %d out of byte range", what, v)
	}
	return nil
}

// WriteFileAtomic writes buf to path via a synced temporary sibling and
// rename, widening the mode to the conventional 0644: a reader sees the
// old file or the new one, never a torn write. The snapshot and
// sealed-table savers, the sealed build's run files and its manifest
// all write through it.
func WriteFileAtomic(path string, buf []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
