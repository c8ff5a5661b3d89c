// The sharded sealed-table build: how `lcltool seal` classifies on a
// worker pool and survives being killed.
//
// planSeal turns a SealConfig into a deterministic shard plan — purely
// a function of the config, never of worker count — partitioning each
// section's outer mask dimension into ranges. Workers claim shards from
// a pool and classify each shard's orbit representatives into its plan
// slot. BuildSealed stops there; the file build also writes each shard
// as one sorted "lclrun1" run file, atomically, so a build killed at
// any instant leaves only complete, checksummed runs behind: resume
// reads each expected run back (store.ReadSealedRun) and re-executes
// just the missing or damaged ones. Both builds then concatenate the
// slots in plan order and encode with store.EncodeSealed — the result
// is byte-identical regardless of worker count or interruption history,
// because shard boundaries and classification are deterministic, the
// encoding is canonical, and the created timestamp is pinned in the
// build manifest at first start.
//
// The build directory holds the manifest (plan hash + created stamp)
// and the run files; it is removed once the artifact is renamed into
// place.

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/classify"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/rooted"
	"repro/internal/store"
)

// sealClassifyCycles is the cycle classifier the sharded build invokes
// — a seam so tests can count invocations and prove that resumed
// builds re-classify only the shards that were lost.
var sealClassifyCycles = classify.Cycles

// SealShardEvent reports one shard's completion during a build.
type SealShardEvent struct {
	// Section names the shard's section ("cycles/k=3").
	Section string
	// Shard and Shards are the shard's index and the build's total
	// shard count, across all sections.
	Shard, Shards int
	// Entries is the number of classified representatives in the shard.
	Entries int
	// Skipped reports a shard satisfied by a valid run file from an
	// earlier (interrupted) build instead of fresh classification.
	Skipped bool
}

// SealBuildResult summarizes a completed file build.
type SealBuildResult struct {
	Path        string                    `json:"path"`
	Bytes       int64                     `json:"bytes"`
	CreatedUnix int64                     `json:"created_unix"`
	Entries     int                       `json:"entries"`
	Sections    []store.SealedSectionInfo `json:"sections"`
	// Shards and SkippedShards count the plan's shards and how many
	// were satisfied by runs recovered from an interrupted build.
	Shards        int `json:"shards"`
	SkippedShards int `json:"skipped_shards"`
}

// ---------------------------------------------------------------------
// shard plan

// sealShardPlan is one unit of build work: a slice of one section's
// outer mask dimension (single-shard spaces use the full [0, 1) range).
type sealShardPlan struct {
	lo, hi uint
	// reps is the shard's known work size in progress ticks (0 when the
	// space only reports progress from inside its census sweep).
	reps int
	// run classifies the shard, emitting (fingerprint, verdict) pairs
	// and calling tick per unit of progress.
	run func(ctx context.Context, emit func(uint64, any) error, tick func(int)) error
}

// sealSectionPlan is one output section and its ordered shards.
type sealSectionPlan struct {
	name   string
	domain string
	kind   string
	total  int // progress denominator; 0 = inner census progress drives it
	shards []sealShardPlan
}

// sealShardTarget caps how many shards one section is split into. It
// is part of the canonical plan (and therefore of resume compatibility
// and byte-determinism), so it must never depend on worker count or
// machine shape.
const sealShardTarget = 32

// shardRanges splits [0, space) into at most sealShardTarget
// equal-width ranges.
func shardRanges(space uint) [][2]uint {
	n := uint(sealShardTarget)
	if space < n {
		n = space
	}
	if n == 0 {
		return nil
	}
	width := (space + n - 1) / n
	var out [][2]uint
	for lo := uint(0); lo < space; lo += width {
		hi := lo + width
		if hi > space {
			hi = space
		}
		out = append(out, [2]uint{lo, hi})
	}
	return out
}

// planSeal derives the deterministic shard plan for a config. Section
// order follows the config (cycles, paths, rooted, grid — the same
// order BuildSealed has always emitted).
func planSeal(cfg SealConfig) ([]sealSectionPlan, error) {
	var plan []sealSectionPlan

	for _, k := range cfg.CycleKs {
		k := k
		name := fmt.Sprintf("cycles/k=%d", k)
		if k < 1 || k > canon.MaxOrbitK {
			return nil, fmt.Errorf("seal %s: k out of supported range [1, %d]", name, canon.MaxOrbitK)
		}
		space := enumerate.CycleMaskSpace(k)
		sec := sealSectionPlan{name: name, domain: enumerate.CycleDomain, kind: store.KindCycles}
		for _, r := range shardRanges(space) {
			lo, hi := r[0], r[1]
			reps := enumerate.CycleRepCount(k, lo, hi)
			sec.total += reps
			sec.shards = append(sec.shards, sealShardPlan{lo: lo, hi: hi, reps: reps,
				run: func(ctx context.Context, emit func(uint64, any) error, tick func(int)) error {
					return enumerate.CycleRepRange(k, lo, hi, func(n2, e uint, orbit int) error {
						if err := ctx.Err(); err != nil {
							return err
						}
						p := enumerate.FromMasks(k, n2, e)
						fp, ok := enumerate.FastCycleFingerprint(p)
						if !ok {
							return fmt.Errorf("mask problem %s rejected by the fast fingerprinter", p.Name)
						}
						res, err := sealClassifyCycles(p)
						if err != nil {
							return fmt.Errorf("classify %s: %w", p.Name, err)
						}
						if err := emit(fp, res); err != nil {
							return err
						}
						tick(1)
						return nil
					})
				}})
		}
		plan = append(plan, sec)
	}

	for _, k := range cfg.PathKs {
		k := k
		name := fmt.Sprintf("paths/k=%d", k)
		sec := sealSectionPlan{name: name, domain: enumerate.PathDomain, kind: store.KindPaths}
		sec.shards = []sealShardPlan{{lo: 0, hi: 1,
			run: func(ctx context.Context, emit func(uint64, any) error, tick func(int)) error {
				decisions, err := enumerate.PathDecisions(k, enumerate.PathRunOpts{
					Ctx:      ctx,
					Progress: sectionProgress(cfg, name),
				})
				if err != nil {
					return err
				}
				for _, d := range decisions {
					if err := emit(d.Fingerprint, d.Result); err != nil {
						return err
					}
				}
				return nil
			}}}
		plan = append(plan, sec)
	}

	if len(cfg.Rooted) > 0 {
		radius := cfg.RootedRadius
		if radius <= 0 {
			radius = rooted.DefaultCensusRadius
		}
		for _, dk := range cfg.Rooted {
			delta, k := dk[0], dk[1]
			name := fmt.Sprintf("rooted/d=%d/k=%d", delta, k)
			sec := sealSectionPlan{name: name, domain: rootedDomain(radius), kind: store.KindRooted}
			sec.shards = []sealShardPlan{{lo: 0, hi: 1,
				run: func(ctx context.Context, emit func(uint64, any) error, tick func(int)) error {
					// The fingerprint dedup guard keeps a hash collision
					// from producing an ambiguous section; distinct mask
					// triples always hash apart in practice.
					seen := map[uint64]bool{}
					capture := func(p *rooted.Problem) (*rooted.Verdict, error) {
						v, err := rooted.ClassifyProblem(p, radius)
						if err != nil {
							return nil, err
						}
						if fp := p.Fingerprint(); !seen[fp] {
							seen[fp] = true
							if err := emit(fp, v); err != nil {
								return nil, err
							}
						}
						return v, nil
					}
					_, err := rooted.RunCensus(delta, k, rooted.CensusOpts{
						MaxRadius: radius, Ctx: ctx, Classify: capture,
						Progress: sectionProgress(cfg, name),
					})
					return err
				}}}
			plan = append(plan, sec)
		}
	}

	for _, k := range cfg.GridKs {
		k := k
		name := fmt.Sprintf("grid/d=1/k=%d", k)
		space := uint(1) << uint(enumerate.PairCount(k))
		gd := gridDecider{}
		domain := gd.MemoDomain(&Request{Mode: ModeGrid, Dims: 1})
		sec := sealSectionPlan{name: name, domain: domain, kind: store.KindGrid, total: int(space) * int(space)}
		for _, r := range shardRanges(space) {
			lo, hi := r[0], r[1]
			sec.shards = append(sec.shards, sealShardPlan{lo: lo, hi: hi, reps: int(hi-lo) * int(space),
				run: func(ctx context.Context, emit func(uint64, any) error, tick func(int)) error {
					seen := map[uint64]bool{}
					for n2 := lo; n2 < hi; n2++ {
						if err := ctx.Err(); err != nil {
							return err
						}
						for e := uint(0); e < space; e++ {
							req := Request{Mode: ModeGrid, Problem: enumerate.FromMasks(k, n2, e), Dims: 1}
							fp, _, err := gd.Fingerprint(&req)
							if err != nil {
								return err
							}
							tick(1)
							if seen[fp] {
								continue
							}
							seen[fp] = true
							v, err := grid.Classify(req.Problem, req.Dims)
							if err != nil {
								return fmt.Errorf("%s: %w", req.Problem.Name, err)
							}
							if err := emit(fp, v); err != nil {
								return err
							}
						}
					}
					return nil
				}})
		}
		plan = append(plan, sec)
	}

	return plan, nil
}

// sectionProgress adapts cfg.Progress to the (done, total) shape the
// single-shard census sweeps report themselves (nil when no progress
// sink is configured).
func sectionProgress(cfg SealConfig, name string) func(done, total int) {
	if cfg.Progress == nil {
		return nil
	}
	return func(done, total int) { cfg.Progress(name, done, total) }
}

// planHash fingerprints everything resume compatibility depends on:
// format version, section identities, and shard boundaries. Builds
// whose hashes differ must not share run files.
func planHash(plan []sealSectionPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lclseal v%d target %d\n", store.SealedVersion, sealShardTarget)
	for _, sec := range plan {
		fmt.Fprintf(&b, "%s|%s|%s:", sec.name, sec.domain, sec.kind)
		for _, sh := range sec.shards {
			fmt.Fprintf(&b, " %d-%d", sh.lo, sh.hi)
		}
		b.WriteByte('\n')
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---------------------------------------------------------------------
// shard execution (shared by the in-memory and file builds)

// sealTask is one scheduled shard.
type sealTask struct {
	section int // index into the plan
	shard   int // index within the section
	global  int // index across the whole plan
}

// runSealShards classifies the plan's shards over a worker pool and
// assembles the table. Each shard's entries (in shard-local emit order)
// land in its plan slot, and the slots concatenate in plan order, so
// the result is independent of worker count; CreatedUnix is left for
// the caller. skip, when non-nil, may supply a shard's entries instead
// of classifying it (resume). done, when non-nil, sees each freshly
// classified shard on its worker goroutine, possibly concurrently. The
// first error cancels the pool.
func runSealShards(ctx context.Context, cfg SealConfig, plan []sealSectionPlan,
	skip func(sealTask) ([]store.SealedEntry, bool), done func(sealTask, []store.SealedEntry) error) (*store.Sealed, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Per-section progress for the sharded (known-total) spaces: shards
	// tick a shared per-section counter. Single-shard census spaces
	// report their own absolute (done, total) pairs from inside their
	// runners (sectionProgress) and never tick.
	counters := make([]atomic.Int64, len(plan))
	progress := func(section int, n int) {
		if n <= 0 {
			return
		}
		sec := &plan[section]
		d := counters[section].Add(int64(n))
		if cfg.Progress != nil && sec.total > 0 {
			cfg.Progress(sec.name, int(d), sec.total)
		}
	}

	slots := make([][][]store.SealedEntry, len(plan))
	var tasks []sealTask
	global := 0
	for si := range plan {
		slots[si] = make([][]store.SealedEntry, len(plan[si].shards))
		for shi := range plan[si].shards {
			t := sealTask{section: si, shard: shi, global: global}
			global++
			if skip != nil {
				if entries, ok := skip(t); ok {
					slots[si][shi] = entries
					progress(si, plan[si].shards[shi].reps)
					continue
				}
			}
			tasks = append(tasks, t)
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				ti := int(next.Add(1)) - 1
				if ti >= len(tasks) {
					return
				}
				t := tasks[ti]
				sp := &plan[t.section].shards[t.shard]
				var entries []store.SealedEntry
				emit := func(fp uint64, v any) error {
					entries = append(entries, store.SealedEntry{Fingerprint: fp, Value: v})
					return nil
				}
				tick := func(n int) { progress(t.section, n) }
				if err := sp.run(ctx, emit, tick); err != nil {
					fail(fmt.Errorf("seal %s: %w", plan[t.section].name, err))
					return
				}
				if done != nil {
					if err := done(t, entries); err != nil {
						fail(err)
						return
					}
				}
				slots[t.section][t.shard] = entries
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sealed := &store.Sealed{}
	for si := range plan {
		sec := store.SealedSection{Name: plan[si].name, Domain: plan[si].domain, Kind: plan[si].kind}
		for _, entries := range slots[si] {
			sec.Entries = append(sec.Entries, entries...)
		}
		sealed.Sections = append(sealed.Sections, sec)
	}
	return sealed, nil
}

// ---------------------------------------------------------------------
// file build with resume

// sealManifest is the build directory's record of what must stay fixed
// across resumes: the plan identity and the created stamp. It is
// written once, at a fresh build's start; shard completion is recovered
// from the run files themselves. (Manifests written by older builds may
// also carry a "completed" ledger, which is ignored.)
type sealManifest struct {
	Version     int    `json:"version"`
	PlanHash    string `json:"plan_hash"`
	CreatedUnix int64  `json:"created_unix"`
}

const (
	sealManifestVersion = 1
	sealManifestName    = "manifest.json"
)

// SealFileBuild is a prepared sharded build of one sealed artifact.
// Callers typically use BuildSealedFile; lcltool constructs one
// directly so it can report the shard count before the build runs.
type SealFileBuild struct {
	path     string
	cfg      SealConfig
	plan     []sealSectionPlan
	dir      string
	manifest sealManifest
}

// shardRunName is the deterministic run-file name for a shard; it only
// encodes plan coordinates, so resumed builds find prior work by name.
func shardRunName(section, shard int) string {
	return fmt.Sprintf("s%02d-%02d.lclrun", section, shard)
}

// NewSealFileBuild plans the build and prepares the build directory
// (cfg.BuildDir, defaulting to path + ".build"). Without cfg.Resume
// any prior runs and manifest in the directory are discarded; with it,
// the existing manifest must match the plan (same config, same format
// version) and its created stamp is kept so the resumed artifact is
// byte-identical to an uninterrupted build.
func NewSealFileBuild(path string, cfg SealConfig) (*SealFileBuild, error) {
	plan, err := planSeal(cfg)
	if err != nil {
		return nil, err
	}
	dir := cfg.BuildDir
	if dir == "" {
		dir = path + ".build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seal: build dir: %w", err)
	}
	b := &SealFileBuild{path: path, cfg: cfg, plan: plan, dir: dir}
	hash := planHash(plan)

	prior, err := readSealManifest(dir)
	if err != nil {
		return nil, err
	}
	if cfg.Resume && prior != nil {
		if prior.PlanHash != hash {
			return nil, fmt.Errorf("seal: build dir %s was produced by a different seal configuration (plan %s, want %s); rebuild without -resume", dir, prior.PlanHash, hash)
		}
		b.manifest = *prior
		return b, nil
	}
	// Fresh build: drop any stale intermediates so they can never leak
	// into this artifact.
	if err := clearSealBuildDir(dir); err != nil {
		return nil, err
	}
	created := cfg.CreatedUnix
	if created == 0 {
		created = time.Now().Unix()
	}
	b.manifest = sealManifest{Version: sealManifestVersion, PlanHash: hash, CreatedUnix: created}
	raw, err := json.MarshalIndent(&b.manifest, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := store.WriteFileAtomic(filepath.Join(dir, sealManifestName), raw); err != nil {
		return nil, fmt.Errorf("seal: write manifest: %w", err)
	}
	return b, nil
}

func readSealManifest(dir string) (*sealManifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, sealManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("seal: read manifest: %w", err)
	}
	var m sealManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("seal: manifest %s is not valid JSON: %v", filepath.Join(dir, sealManifestName), err)
	}
	if m.Version != sealManifestVersion {
		return nil, fmt.Errorf("seal: manifest version %d, supported %d", m.Version, sealManifestVersion)
	}
	return &m, nil
}

// clearSealBuildDir removes the manifest and run files (only — the
// directory may be user-chosen, so nothing else is touched).
func clearSealBuildDir(dir string) error {
	names, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("seal: build dir: %w", err)
	}
	for _, de := range names {
		if de.Name() == sealManifestName || strings.HasSuffix(de.Name(), ".lclrun") {
			if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
				return fmt.Errorf("seal: build dir: %w", err)
			}
		}
	}
	return nil
}

// Dir returns the build directory holding the in-flight shard runs and
// manifest — where a -resume of this build looks for prior work.
func (b *SealFileBuild) Dir() string {
	return b.dir
}

// Shards returns the plan's total shard count.
func (b *SealFileBuild) Shards() int {
	n := 0
	for i := range b.plan {
		n += len(b.plan[i].shards)
	}
	return n
}

// CreatedUnix returns the artifact timestamp the build will stamp
// (pinned at first start, preserved across resumes).
func (b *SealFileBuild) CreatedUnix() int64 {
	return b.manifest.CreatedUnix
}

// Run executes the build: read back the shards whose run files
// survived a prior interrupted build, classify the rest over the worker
// pool (writing each one's run file), then encode the whole table with
// store.SaveSealed. On success the build directory is removed.
func (b *SealFileBuild) Run(ctx context.Context) (*SealBuildResult, error) {
	if ctx == nil {
		ctx = b.cfg.Ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	totalShards := b.Shards()
	skipped := 0

	// skip runs on this goroutine, before any worker starts.
	skip := func(t sealTask) ([]store.SealedEntry, bool) {
		sec := &b.plan[t.section]
		entries, err := store.ReadSealedRun(filepath.Join(b.dir, shardRunName(t.section, t.shard)), sec.kind)
		if err != nil {
			return nil, false
		}
		skipped++
		if b.cfg.ShardDone != nil {
			b.cfg.ShardDone(SealShardEvent{Section: sec.name, Shard: t.global, Shards: totalShards, Entries: len(entries), Skipped: true})
		}
		return entries, true
	}
	done := func(t sealTask, entries []store.SealedEntry) error {
		sec := &b.plan[t.section]
		if err := store.WriteSealedRun(filepath.Join(b.dir, shardRunName(t.section, t.shard)), sec.kind, entries); err != nil {
			return fmt.Errorf("seal %s: %w", sec.name, err)
		}
		if b.cfg.ShardDone != nil {
			b.cfg.ShardDone(SealShardEvent{Section: sec.name, Shard: t.global, Shards: totalShards, Entries: len(entries)})
		}
		return nil
	}
	sealed, err := runSealShards(ctx, b.cfg, b.plan, skip, done)
	if err != nil {
		// Leave the run files and manifest behind: they are the
		// checkpoint a -resume build picks up from.
		return nil, err
	}
	sealed.CreatedUnix = b.manifest.CreatedUnix
	size, err := store.SaveSealed(b.path, sealed)
	if err != nil {
		return nil, err
	}

	res := &SealBuildResult{
		Path:          b.path,
		Bytes:         int64(size),
		CreatedUnix:   sealed.CreatedUnix,
		Shards:        totalShards,
		SkippedShards: skipped,
	}
	for _, sec := range sealed.Sections {
		res.Sections = append(res.Sections, store.SealedSectionInfo{Name: sec.Name, Domain: sec.Domain, Kind: sec.Kind, Entries: len(sec.Entries)})
		res.Entries += len(sec.Entries)
	}
	if err := clearSealBuildDir(b.dir); err != nil {
		return nil, err
	}
	// Best-effort: the directory only goes away if nothing foreign
	// lives in it.
	os.Remove(b.dir)
	return res, nil
}

// BuildSealedFile runs a complete sharded, resumable build of the
// configured spaces into a sealed artifact at path. See
// NewSealFileBuild and SealFileBuild.Run for the resume and
// determinism contract.
func BuildSealedFile(path string, cfg SealConfig) (*SealBuildResult, error) {
	b, err := NewSealFileBuild(path, cfg)
	if err != nil {
		return nil, err
	}
	return b.Run(cfg.Ctx)
}
