package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/classify"
	"repro/internal/lcl"
	"repro/internal/store"
)

const testSealCreated = 1754600000

func testFileSealConfig() SealConfig {
	cfg := testSealConfig()
	cfg.CreatedUnix = testSealCreated
	return cfg
}

// referenceSealBytes is the ground truth every sharded build is
// compared against: the in-memory build encoded by EncodeSealed.
func referenceSealBytes(t *testing.T) []byte {
	t.Helper()
	sealed, err := BuildSealed(testSealConfig())
	if err != nil {
		t.Fatal(err)
	}
	sealed.CreatedUnix = testSealCreated
	buf, err := store.EncodeSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func readArtifact(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBuildSealedFileMatchesInMemoryEncode: the sharded file build and
// the in-memory BuildSealed path are byte-identical.
func TestBuildSealedFileMatchesInMemoryEncode(t *testing.T) {
	want := referenceSealBytes(t)
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	res, err := BuildSealedFile(path, testFileSealConfig())
	if err != nil {
		t.Fatalf("BuildSealedFile: %v", err)
	}
	got := readArtifact(t, path)
	if string(got) != string(want) {
		t.Fatalf("file build differs from in-memory encode (%d vs %d bytes)", len(got), len(want))
	}
	if res.Bytes != int64(len(got)) {
		t.Errorf("result reports %d bytes, file has %d", res.Bytes, len(got))
	}
	if res.CreatedUnix != testSealCreated {
		t.Errorf("result created %d, want %d", res.CreatedUnix, testSealCreated)
	}
	if res.Shards == 0 || res.SkippedShards != 0 || res.Entries == 0 || len(res.Sections) != 4 {
		t.Errorf("implausible result: %+v", res)
	}
	if _, err := os.Stat(path + ".build"); !os.IsNotExist(err) {
		t.Errorf("build dir survived a successful build (stat err = %v)", err)
	}
	tbl, err := store.OpenSealedMapped(path)
	if err != nil {
		t.Fatalf("OpenSealedMapped of built artifact: %v", err)
	}
	defer tbl.Close()
	if tbl.Len() != res.Entries {
		t.Errorf("table has %d entries, result reports %d", tbl.Len(), res.Entries)
	}
}

// TestBuildSealedFileDeterministicAcrossWorkers is half the acceptance
// bar: worker count must never leak into the artifact bytes.
func TestBuildSealedFileDeterministicAcrossWorkers(t *testing.T) {
	want := referenceSealBytes(t)
	for _, workers := range []int{1, 4, 16} {
		cfg := testFileSealConfig()
		cfg.Workers = workers
		path := filepath.Join(t.TempDir(), "landscape.lclseal")
		if _, err := BuildSealedFile(path, cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := readArtifact(t, path); string(got) != string(want) {
			t.Errorf("workers=%d: artifact differs from the single-threaded reference", workers)
		}
	}
}

// TestBuildSealedFileResumeKillAtEveryCheckpoint is the other half: a
// build killed after every checkpoint in turn — shard N completes, the
// process dies, a -resume build picks up — must converge to the exact
// single-threaded bytes, re-classifying only lost work.
func TestBuildSealedFileResumeKillAtEveryCheckpoint(t *testing.T) {
	want := referenceSealBytes(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "landscape.lclseal")

	cfg := testFileSealConfig()
	cfg.Workers = 1
	probe, err := NewSealFileBuild(filepath.Join(t.TempDir(), "probe.lclseal"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalShards := probe.Shards()
	if totalShards < 4 {
		t.Fatalf("test config plans only %d shards; the kill schedule needs more", totalShards)
	}

	// Chain of killed sessions: session i completes exactly one new
	// shard, then cancels — exercising resume-of-resume at every
	// checkpoint boundary until the final session finishes the build.
	done := 0
	for session := 0; done < totalShards; session++ {
		if session > totalShards {
			t.Fatalf("made no progress after %d sessions (done=%d of %d)", session, done, totalShards)
		}
		scfg := testFileSealConfig()
		scfg.Workers = 1
		scfg.Resume = session > 0
		ctx, cancel := context.WithCancel(context.Background())
		scfg.Ctx = ctx
		var fresh, skipped atomic.Int64
		scfg.ShardDone = func(ev SealShardEvent) {
			if ev.Skipped {
				skipped.Add(1)
				return
			}
			if fresh.Add(1) == 1 && done+1 < totalShards {
				cancel() // the "kill": no further shards may start
			}
		}
		res, err := BuildSealedFile(path, scfg)
		cancel()
		if done+int(fresh.Load()) < totalShards {
			if err == nil {
				t.Fatalf("session %d: build completed despite the kill (done=%d)", session, done)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("session %d: err = %v, want context.Canceled", session, err)
			}
		} else {
			if err != nil {
				t.Fatalf("final session %d: %v", session, err)
			}
			if res.SkippedShards != int(skipped.Load()) || res.SkippedShards != done {
				t.Errorf("final session: skipped %d shards, want %d", res.SkippedShards, done)
			}
		}
		if int(skipped.Load()) != done {
			t.Errorf("session %d: resumed %d shards from disk, want %d", session, skipped.Load(), done)
		}
		done += int(fresh.Load())
	}
	if got := readArtifact(t, path); string(got) != string(want) {
		t.Fatal("kill-and-resume chain produced different bytes than an uninterrupted build")
	}
}

// killAfterFirstShard runs a single-worker build of cfg into path and
// cancels it as soon as the first shard completes, leaving that
// shard's run file and the manifest in the build directory.
func killAfterFirstShard(t *testing.T, path string, cfg SealConfig) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Workers = 1
	cfg.Ctx = ctx
	cfg.ShardDone = func(SealShardEvent) { cancel() }
	if _, err := BuildSealedFile(path, cfg); err == nil {
		t.Fatal("killed build reported success")
	}
}

// addLegacyLedger rewrites the build manifest with the "completed"
// shard ledger that earlier builds kept, to prove resume ignores it.
func addLegacyLedger(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, sealManifestName)
	var m map[string]any
	if err := json.Unmarshal(readArtifact(t, path), &m); err != nil {
		t.Fatal(err)
	}
	m["completed"] = map[string]int{shardRunName(0, 0): 1}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBuildSealedFileResumeSkipsCompletedClassification proves resume
// does not silently re-classify completed shards: after a shard
// survives the kill, the classifier seam sees fewer cycle invocations
// than a full build — whether or not the manifest still carries the
// completed-shard ledger of older builds.
func TestBuildSealedFileResumeSkipsCompletedClassification(t *testing.T) {
	cfg := SealConfig{CycleKs: []int{2}, CreatedUnix: testSealCreated, Workers: 1}
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	if _, err := BuildSealedFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	want := readArtifact(t, path)

	for _, legacy := range []bool{false, true} {
		name := "manifest"
		if legacy {
			name = "legacy-ledger-manifest"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "landscape.lclseal")
			killAfterFirstShard(t, path, cfg)
			if legacy {
				addLegacyLedger(t, path+".build")
			}

			var calls atomic.Int64
			orig := sealClassifyCycles
			sealClassifyCycles = func(p *lcl.Problem) (*classify.Result, error) {
				calls.Add(1)
				return orig(p)
			}
			defer func() { sealClassifyCycles = orig }()

			rcfg := cfg
			rcfg.Resume = true
			res, err := BuildSealedFile(path, rcfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if res.SkippedShards == 0 {
				t.Error("resume re-ran every shard; expected recovered runs")
			}
			if int(calls.Load()) >= res.Entries {
				t.Errorf("resume classified %d problems of %d total; completed shards were not skipped", calls.Load(), res.Entries)
			}
			if got := readArtifact(t, path); string(got) != string(want) {
				t.Fatal("resumed artifact differs from uninterrupted build")
			}
		})
	}
}

// TestBuildSealedFileResumeRebuildsUndecodableRun: a run file whose
// checksum is valid but whose verdict word does not decode (a cycle
// class byte out of range) must not reach the artifact. Resume rebuilds
// that shard, and the artifact opens and matches an uninterrupted build.
func TestBuildSealedFileResumeRebuildsUndecodableRun(t *testing.T) {
	cfg := SealConfig{CycleKs: []int{2}, CreatedUnix: testSealCreated, Workers: 1}
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	if _, err := BuildSealedFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	want := readArtifact(t, path)

	path = filepath.Join(t.TempDir(), "landscape.lclseal")
	killAfterFirstShard(t, path, cfg)
	runs, err := filepath.Glob(filepath.Join(path+".build", "*.lclrun"))
	if err != nil || len(runs) == 0 {
		t.Fatalf("killed build left no run files (%v)", err)
	}
	// Run layout: 8-byte magic, u32 count, then entry 0's u64
	// fingerprint and u64 verdict word, whose low byte (file offset 27)
	// is the cycle class; the last 8 bytes are the FNV-1a checksum of
	// everything after the count.
	raw := readArtifact(t, runs[0])
	raw[27] = 0xff
	h := fnv.New64a()
	h.Write(raw[12 : len(raw)-8])
	binary.BigEndian.PutUint64(raw[len(raw)-8:], h.Sum64())
	if err := os.WriteFile(runs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Resume = true
	res, err := BuildSealedFile(path, rcfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.SkippedShards != len(runs)-1 {
		t.Errorf("resume skipped %d shards, want %d (the damaged run rebuilt)", res.SkippedShards, len(runs)-1)
	}
	tbl, err := store.LoadSealed(path)
	if err != nil {
		t.Fatalf("LoadSealed of resumed artifact: %v", err)
	}
	if tbl.Len() != res.Entries {
		t.Errorf("table has %d entries, result reports %d", tbl.Len(), res.Entries)
	}
	if got := readArtifact(t, path); string(got) != string(want) {
		t.Fatal("resumed artifact differs from uninterrupted build")
	}
}

func TestBuildSealedFileResumeRejectsConfigChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	killAfterFirstShard(t, path, SealConfig{CycleKs: []int{2}, CreatedUnix: testSealCreated})

	other := SealConfig{CycleKs: []int{1, 2}, Resume: true}
	if _, err := BuildSealedFile(path, other); err == nil || !strings.Contains(err.Error(), "different seal configuration") {
		t.Fatalf("err = %v, want plan-mismatch rejection", err)
	}
}

// TestBuildSealedFileResumePreservesCreatedStamp: the resumed build
// must keep the original header timestamp even if the caller passes a
// different one, or byte-identity would silently break.
func TestBuildSealedFileResumePreservesCreatedStamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "landscape.lclseal")
	killAfterFirstShard(t, path, SealConfig{CycleKs: []int{2}, CreatedUnix: testSealCreated})

	rcfg := SealConfig{CycleKs: []int{2}, CreatedUnix: 42, Resume: true, Workers: 1}
	res, err := BuildSealedFile(path, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CreatedUnix != testSealCreated {
		t.Fatalf("resumed build stamped %d, want the manifest's %d", res.CreatedUnix, testSealCreated)
	}
	tbl, err := store.LoadSealed(path)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.CreatedUnix() != testSealCreated {
		t.Fatalf("artifact header stamped %d, want %d", tbl.CreatedUnix(), testSealCreated)
	}
}
