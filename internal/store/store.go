// Package store persists the classification stack's warm state — full
// censuses (enumerate.Census, enumerate.PathCensus) and memo cache
// entries keyed by canonical fingerprint (internal/canon, internal/memo)
// — in a versioned, checksummed snapshot file, so a restarted engine
// serves its first requests as fast as its last.
//
// File format (all integers big-endian):
//
//	offset  size  field
//	0       8     magic "lclsnap1"
//	8       4     format version (currently 1)
//	12      8     payload length in bytes
//	20      8     FNV-1a 64 checksum of the payload
//	28      n     payload: the JSON encoding of Snapshot
//
// Saves are atomic: the file is written to a temporary sibling, synced,
// and renamed over the destination, so readers never observe a partial
// snapshot and a crash mid-save leaves the previous snapshot intact.
// Loads are corruption-tolerant in the sense that any damage —
// truncation, bit flips, a bad magic, a stale format version — is
// detected and reported as a typed error (ErrCorrupt, ErrVersion) rather
// than yielding garbage, so callers can fall back to a cold start.
//
// The snapshot payload stores records, not in-memory types: census rows
// are (mask, orbit, class, period, fingerprint) tuples re-materialized
// through enumerate.FromMasks, and memo values are tagged per decision
// procedure. Decoupling the wire form from the structs keeps old
// snapshots readable as the in-memory types evolve (bump Version when
// the records themselves change).
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/rooted"
)

// Version is the current snapshot format version. Load rejects files
// written at any other version with ErrVersion.
const Version = 1

const (
	magic      = "lclsnap1"
	headerSize = len(magic) + 4 + 8 + 8
)

// Typed load failures. Both mean "start cold"; they are distinct so
// operators can tell damaged files from stale ones.
var (
	// ErrCorrupt reports a snapshot that is structurally damaged:
	// truncated, checksum mismatch, bad magic, or undecodable payload.
	ErrCorrupt = errors.New("store: snapshot corrupt")
	// ErrVersion reports a snapshot written at a different format version.
	ErrVersion = errors.New("store: snapshot version mismatch")
)

// Snapshot is the persisted warm state.
type Snapshot struct {
	// CreatedUnix is the save time in Unix seconds.
	CreatedUnix int64 `json:"created_unix"`
	// Censuses holds one record per (k, dedup) cycle census.
	Censuses []CensusRecord `json:"censuses,omitempty"`
	// PathCensuses holds one record per path-census alphabet size.
	PathCensuses []PathCensusRecord `json:"path_censuses,omitempty"`
	// Memo holds the persistable memo cache entries.
	Memo []MemoEntry `json:"memo,omitempty"`
	// MemoStats carries the cache's lifetime counters at save time, so
	// hit/miss accounting survives restarts.
	MemoStats MemoStats `json:"memo_stats"`
}

// CensusRecord is the wire form of an enumerate.Census.
type CensusRecord struct {
	K       int                 `json:"k"`
	Dedup   bool                `json:"dedup"`
	Entries []CensusEntryRecord `json:"entries"`
}

// CensusEntryRecord is one census row: the defining masks plus the
// decided classification. The problem itself is re-materialized from the
// masks on load.
type CensusEntryRecord struct {
	N2Mask      uint64 `json:"n2"`
	EMask       uint64 `json:"e"`
	Orbit       int    `json:"orbit"`
	Class       int    `json:"class"`
	Period      int    `json:"period"`
	Witness     string `json:"w,omitempty"`
	Fingerprint uint64 `json:"fp"`
}

// PathCensusRecord is the wire form of an enumerate.PathCensus.
type PathCensusRecord struct {
	K              int         `json:"k"`
	SolvableAll    int         `json:"solvable_all"`
	UnsolvableSome int         `json:"unsolvable_some"`
	ShortestBad    map[int]int `json:"shortest_bad,omitempty"`
	Total          int         `json:"total"`
}

// MemoStats mirrors the counter fields of memo.Stats (size, shard count,
// and capacity are properties of the receiving cache, not of the saved
// traffic, so they are not persisted).
type MemoStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Puts      uint64 `json:"puts"`
}

// Memo payload kinds. One per decision procedure whose result is plain
// data; engine-local payloads (synthesized algorithms) are skipped at
// encode time.
const (
	KindCycles = "cycles"
	KindTrees  = "trees"
	KindPaths  = "paths"
	KindRooted = "rooted"
	KindGrid   = "grid"
)

// MemoEntry is one persisted cache entry: the mixed memo key and a
// kind-tagged payload (exactly one payload field is set). The rooted
// and grid verdicts are plain string-classed values and serve as their
// own wire form; their lattice classes are validated on decode by
// decide.Class's text unmarshaler.
type MemoEntry struct {
	Key    uint64            `json:"key"`
	Kind   string            `json:"kind"`
	Cycles *CycleResult      `json:"cycles,omitempty"`
	Trees  *TreeVerdict      `json:"trees,omitempty"`
	Paths  *PathInputsResult `json:"paths,omitempty"`
	Rooted *rooted.Verdict   `json:"rooted,omitempty"`
	Grid   *grid.Verdict     `json:"grid,omitempty"`
}

// CycleResult is the wire form of classify.Result.
type CycleResult struct {
	Class   int    `json:"class"`
	Period  int    `json:"period"`
	Witness string `json:"witness,omitempty"`
}

// TreeVerdict is the wire form of core.TreeVerdict. The raw pipeline
// detail (Detail) is engine-local diagnostics and is not persisted; a
// verdict restored from a snapshot has Detail == nil.
type TreeVerdict struct {
	Constant   bool `json:"constant"`
	LowerBound bool `json:"lower_bound"`
	Level      int  `json:"level"`
}

// PathInputsResult is the wire form of classify.InputsResult.
type PathInputsResult struct {
	SolvableAllInputs bool  `json:"solvable_all_inputs"`
	BadInput          []int `json:"bad_input,omitempty"`
}

// FromCensus converts a census into its wire record.
func FromCensus(c *enumerate.Census) CensusRecord {
	r := CensusRecord{K: c.K, Dedup: c.Dedup, Entries: make([]CensusEntryRecord, 0, len(c.Entries))}
	for _, e := range c.Entries {
		r.Entries = append(r.Entries, CensusEntryRecord{
			N2Mask:      uint64(e.N2Mask),
			EMask:       uint64(e.EMask),
			Orbit:       e.Orbit,
			Class:       int(e.Class),
			Period:      e.Period,
			Witness:     e.Witness,
			Fingerprint: e.Fingerprint,
		})
	}
	return r
}

// Census re-materializes the record: problems are rebuilt from their
// masks and the class maps are recomputed from the rows.
func (r *CensusRecord) Census() (*enumerate.Census, error) {
	if r.K < 1 || r.K > 3 {
		return nil, fmt.Errorf("store: census record k = %d out of range [1, 3]", r.K)
	}
	c := &enumerate.Census{
		K:          r.K,
		Dedup:      r.Dedup,
		Entries:    make([]enumerate.Entry, 0, len(r.Entries)),
		ByClass:    map[classify.Class]int{},
		RawByClass: map[classify.Class]int{},
	}
	maskSpace := uint64(1) << uint(enumerate.PairCount(r.K))
	for _, er := range r.Entries {
		if er.Class < int(classify.Unsolvable) || er.Class > int(classify.Global) {
			return nil, fmt.Errorf("store: census record class %d out of range", er.Class)
		}
		if er.N2Mask >= maskSpace || er.EMask >= maskSpace {
			return nil, fmt.Errorf("store: census record mask (%d, %d) out of range for k = %d", er.N2Mask, er.EMask, r.K)
		}
		if er.Orbit < 1 {
			return nil, fmt.Errorf("store: census record orbit %d < 1", er.Orbit)
		}
		cl := classify.Class(er.Class)
		c.Entries = append(c.Entries, enumerate.Entry{
			Enumerated: enumerate.Enumerated{
				Problem: enumerate.FromMasks(r.K, uint(er.N2Mask), uint(er.EMask)),
				N2Mask:  uint(er.N2Mask),
				EMask:   uint(er.EMask),
				Orbit:   er.Orbit,
			},
			Class:       cl,
			Period:      er.Period,
			Witness:     er.Witness,
			Fingerprint: er.Fingerprint,
		})
		c.ByClass[cl]++
		c.RawByClass[cl] += er.Orbit
	}
	return c, nil
}

// FromPathCensus converts a path census into its wire record.
func FromPathCensus(c *enumerate.PathCensus) PathCensusRecord {
	return PathCensusRecord{
		K:              c.K,
		SolvableAll:    c.SolvableAll,
		UnsolvableSome: c.UnsolvableSome,
		ShortestBad:    c.ShortestBad,
		Total:          c.Total,
	}
}

// PathCensus re-materializes the record, rejecting internally
// inconsistent counts (the same skepticism CensusRecord.Census applies
// to cycle records).
func (r *PathCensusRecord) PathCensus() (*enumerate.PathCensus, error) {
	if r.K < 1 || r.K > 3 {
		return nil, fmt.Errorf("store: path census record k = %d out of range [1, 3]", r.K)
	}
	if r.Total <= 0 || r.SolvableAll < 0 || r.UnsolvableSome < 0 || r.SolvableAll+r.UnsolvableSome != r.Total {
		return nil, fmt.Errorf("store: path census record counts inconsistent: %d solvable + %d unsolvable != %d total",
			r.SolvableAll, r.UnsolvableSome, r.Total)
	}
	sb := map[int]int{}
	badSum := 0
	for n, count := range r.ShortestBad {
		if count < 0 {
			return nil, fmt.Errorf("store: path census record: negative count for length %d", n)
		}
		sb[n] = count
		badSum += count
	}
	if badSum != r.UnsolvableSome {
		return nil, fmt.Errorf("store: path census record: shortest-bad counts sum to %d, want %d", badSum, r.UnsolvableSome)
	}
	return &enumerate.PathCensus{
		K:              r.K,
		SolvableAll:    r.SolvableAll,
		UnsolvableSome: r.UnsolvableSome,
		ShortestBad:    sb,
		Total:          r.Total,
	}, nil
}

// EncodeMemo converts exported cache entries (memo.Cache.Export) into
// snapshot records. Values whose kind the snapshot format does not cover
// (e.g. synthesized algorithms, which embed executable state) are
// skipped; the count of skipped entries is returned.
func EncodeMemo(entries []memo.Entry) (records []MemoEntry, skipped int) {
	for _, e := range entries {
		switch v := e.Value.(type) {
		case *classify.Result:
			records = append(records, MemoEntry{
				Key:    e.Key,
				Kind:   KindCycles,
				Cycles: &CycleResult{Class: int(v.Class), Period: v.Period, Witness: v.Witness},
			})
		case *core.TreeVerdict:
			records = append(records, MemoEntry{
				Key:   e.Key,
				Kind:  KindTrees,
				Trees: &TreeVerdict{Constant: v.Constant, LowerBound: v.LowerBound, Level: v.Level},
			})
		case *classify.InputsResult:
			records = append(records, MemoEntry{
				Key:   e.Key,
				Kind:  KindPaths,
				Paths: &PathInputsResult{SolvableAllInputs: v.SolvableAllInputs, BadInput: v.BadInput},
			})
		case *rooted.Verdict:
			records = append(records, MemoEntry{Key: e.Key, Kind: KindRooted, Rooted: v})
		case *grid.Verdict:
			records = append(records, MemoEntry{Key: e.Key, Kind: KindGrid, Grid: v})
		default:
			skipped++
		}
	}
	return records, skipped
}

// DecodeMemo reverses EncodeMemo into entries ready for
// memo.Cache.Import.
func DecodeMemo(records []MemoEntry) ([]memo.Entry, error) {
	out := make([]memo.Entry, 0, len(records))
	for i, r := range records {
		var value any
		switch {
		case r.Kind == KindCycles && r.Cycles != nil:
			if r.Cycles.Class < int(classify.Unsolvable) || r.Cycles.Class > int(classify.Global) {
				return nil, fmt.Errorf("store: memo record %d: class %d out of range", i, r.Cycles.Class)
			}
			value = &classify.Result{Class: classify.Class(r.Cycles.Class), Period: r.Cycles.Period, Witness: r.Cycles.Witness}
		case r.Kind == KindTrees && r.Trees != nil:
			value = &core.TreeVerdict{Constant: r.Trees.Constant, LowerBound: r.Trees.LowerBound, Level: r.Trees.Level}
		case r.Kind == KindPaths && r.Paths != nil:
			value = &classify.InputsResult{SolvableAllInputs: r.Paths.SolvableAllInputs, BadInput: r.Paths.BadInput}
		case r.Kind == KindRooted && r.Rooted != nil:
			value = r.Rooted
		case r.Kind == KindGrid && r.Grid != nil:
			value = r.Grid
		default:
			return nil, fmt.Errorf("store: memo record %d: kind %q without matching payload", i, r.Kind)
		}
		out = append(out, memo.Entry{Key: r.Key, Value: value})
	}
	return out, nil
}

// Save writes the snapshot to path atomically (temp file + fsync +
// rename) and returns the total file size in bytes.
func Save(path string, s *Snapshot) (int, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return 0, fmt.Errorf("store: encode snapshot: %w", err)
	}
	buf := make([]byte, 0, headerSize+len(payload))
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint32(buf, Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.BigEndian.AppendUint64(buf, checksum(payload))
	buf = append(buf, payload...)

	// Snapshots are shared operational state (backup jobs, restarts
	// under a different service user), so the atomic writer's 0644 mode
	// suits them.
	if err := WriteFileAtomic(path, buf); err != nil {
		return 0, fmt.Errorf("store: save snapshot: %w", err)
	}
	return len(buf), nil
}

// Load reads and verifies a snapshot. Damage is reported as ErrCorrupt
// and a foreign format version as ErrVersion (both via errors.Is); a
// missing file surfaces as the underlying fs error (os.IsNotExist).
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(raw), headerSize)
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, raw[:len(magic)])
	}
	version := binary.BigEndian.Uint32(raw[len(magic):])
	if version != Version {
		return nil, fmt.Errorf("%w: file version %d, supported version %d", ErrVersion, version, Version)
	}
	length := binary.BigEndian.Uint64(raw[len(magic)+4:])
	sum := binary.BigEndian.Uint64(raw[len(magic)+12:])
	payload := raw[headerSize:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload is %d bytes, header declares %d", ErrCorrupt, len(payload), length)
	}
	if got := checksum(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum %016x, header declares %016x", ErrCorrupt, got, sum)
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("%w: decode payload: %v", ErrCorrupt, err)
	}
	return &s, nil
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
