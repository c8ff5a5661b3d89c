// Building the sealed landscape: the offline sweep behind `lcltool
// seal`. Each supported finite mask space is enumerated, classified
// once per orbit representative, and packaged as one store.Sealed
// section keyed under the exact memo domain the serving decider uses —
// so a sealed table built here answers production traffic without the
// deciders knowing it exists.
//
// Coverage semantics differ by space, mirroring each decider's
// fingerprint discipline:
//
//   - cycles and paths entries are keyed by canonical fingerprint; the
//     serving fingerprint of every orbit member resolves to its
//     representative's (FastCycleFingerprint / LCLFingerprint), so one
//     entry covers the whole isomorphism class.
//   - rooted and grid entries are keyed by the deciders' exact
//     (spelling-sensitive) fingerprints, so they cover requests phrased
//     in the census encoding — labels "l0".."l{k-1}" with the canonical
//     constraint spelling — which is what lcltool and the census jobs
//     emit.
//
// Two build paths share one shard plan and one encoder (sealedbuild.go):
// BuildSealed assembles the table for store.SaveSealed, and
// BuildSealedFile does the same while writing each shard to a run file,
// so an interrupted build can resume.

package service

import (
	"context"

	"repro/internal/store"
)

// SealConfig selects which mask spaces BuildSealed sweeps. Empty slices
// skip the space entirely.
type SealConfig struct {
	// CycleKs lists cycle-census alphabet sizes to seal (each in
	// [1, canon.MaxOrbitK]).
	CycleKs []int
	// PathKs lists path-space alphabet sizes to seal (each in [1, 3]).
	PathKs []int
	// Rooted lists (delta, k) rooted spaces to seal (delta in [1, 3],
	// k in [1, 2]); RootedRadius bounds the anonymous synthesis search
	// (0 selects rooted.DefaultCensusRadius). The radius is part of the
	// memo domain, so a table sealed at one radius only serves requests
	// asking for it.
	Rooted       [][2]int
	RootedRadius int
	// GridKs lists mask-space alphabet sizes to seal for the
	// one-dimensional oriented torus (each in [1, canon.MaxOrbitK]).
	GridKs []int
	// Workers sets the shard worker pool size (<= 0 selects
	// GOMAXPROCS). Worker count never affects the built artifact's
	// bytes, only wall-clock.
	Workers int
	// Ctx, when non-nil, cancels the build between problems.
	Ctx context.Context
	// Progress, when non-nil, is called per section as classification
	// advances. It may be called concurrently from shard workers.
	Progress func(section string, done, total int)

	// The fields below apply to BuildSealedFile (the sharded,
	// checkpointed file build) only.

	// CreatedUnix pins the artifact header timestamp; 0 stamps the
	// build's start time. Resumed builds always keep the original
	// stamp recorded in the build manifest, so interrupted and
	// uninterrupted builds stay byte-identical.
	CreatedUnix int64
	// BuildDir holds the run files and manifest while the build is in
	// flight (default: the artifact path + ".build"). It is removed on
	// success.
	BuildDir string
	// Resume reuses complete shard run files found in BuildDir from a
	// previously interrupted build of the same configuration instead
	// of rebuilding them.
	Resume bool
	// ShardDone, when non-nil, is called after every shard completes
	// or is skipped on resume. It may be called concurrently.
	ShardDone func(SealShardEvent)
}

// DefaultSealConfig covers every space the classifiers handle at
// interactive build cost: the full k <= 3 cycle and grid mask spaces,
// the k <= 2 path spaces, and all four supported rooted (delta, k)
// spaces at the default census radius. The k = 4 cycle frontier is
// opt-in (`lcltool seal -cycles-k 4`): its 48,400 representatives
// build in about 0.7 s on 2 cores (2 workers) into a 2.3 MB section,
// against ~20 ms for the k <= 3 cycle spaces.
func DefaultSealConfig() SealConfig {
	return SealConfig{
		CycleKs: []int{1, 2, 3},
		PathKs:  []int{1, 2},
		Rooted:  [][2]int{{1, 1}, {2, 1}, {3, 1}, {1, 2}, {2, 2}},
		GridKs:  []int{1, 2, 3},
	}
}

// BuildSealed classifies every orbit representative of the configured
// mask spaces and returns the sealed landscape ready for
// store.SaveSealed. It runs the same deterministic shard plan as
// BuildSealedFile over the worker pool, without run files: for a given
// config the result is independent of worker count (section order
// follows the config, shard results concatenate in plan order, and
// entries are fingerprint-sorted on encode), except for CreatedUnix,
// which the caller stamps.
func BuildSealed(cfg SealConfig) (*store.Sealed, error) {
	plan, err := planSeal(cfg)
	if err != nil {
		return nil, err
	}
	return runSealShards(cfg.Ctx, cfg, plan, nil, nil)
}
