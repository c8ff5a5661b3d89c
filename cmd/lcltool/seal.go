// The seal subcommand: enumerate every orbit representative of the
// selected mask spaces, classify each once, and write the verdicts as a
// versioned read-only sealed table (format "lclseal1", see
// docs/FORMATS.md). lclserver loads the artifact with -sealed and
// serves those spaces with a single hash probe — no classifier, no
// cache churn, no allocation.
//
// The build runs as a local jobs.Manager job: shard completions feed
// the jobs progress machinery (the same renderer `lcltool jobs watch`
// uses). Every completed shard is an atomic run file in the build
// directory, so a build killed at any point resumes with -resume from
// its last completed shard instead of starting over.

package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

// sealProgress bridges the build's shard-completion hook to the jobs
// manager's Report callback (armed once the runner starts) and owns
// the planned-stop trigger for -stop-after.
type sealProgress struct {
	mu        sync.Mutex
	report    jobs.Report
	cancel    context.CancelFunc
	total     int64
	done      int64
	fresh     int64
	skipped   int64
	stopAfter int64
	stopped   bool
}

func (p *sealProgress) arm(report jobs.Report, cancel context.CancelFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.report = report
	p.cancel = cancel
	if p.total > 0 {
		report("classify", p.done, p.total)
	}
}

func (p *sealProgress) shardDone(ev service.SealShardEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if ev.Skipped {
		p.skipped++
	} else {
		p.fresh++
	}
	if p.report != nil {
		p.report(ev.Section, p.done, p.total)
	}
	if p.stopAfter > 0 && p.fresh >= p.stopAfter && !p.stopped && p.cancel != nil {
		p.stopped = true
		p.cancel()
	}
}

func (p *sealProgress) plannedStop() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopped
}

// runSeal handles `lcltool seal <flags>`.
func runSeal(args []string) {
	fs := flag.NewFlagSet("seal", flag.ExitOnError)
	out := fs.String("out", "landscape.lclseal", "output path for the sealed table")
	cyclesK := fs.Int("cycles-k", 3, "seal cycle mask spaces for k = 1..N labels (0 skips cycles)")
	pathsK := fs.Int("paths-k", 2, "seal path-with-inputs spaces for k = 1..N labels (0 skips paths)")
	rootedDelta := fs.Int("rooted-delta", 2, "seal rooted (delta, k) spaces up to this delta (0 skips rooted)")
	rootedK := fs.Int("rooted-k", 2, "seal rooted (delta, k) spaces up to this k")
	rootedRadius := fs.Int("rooted-radius", 0, "anonymous synthesis radius for rooted spaces (0 = default)")
	gridK := fs.Int("grid-k", 3, "seal 1-dimensional oriented-torus spaces for k = 1..N labels (0 skips grids)")
	workers := fs.Int("workers", 0, "parallel shard workers (0 = GOMAXPROCS); never affects the artifact bytes")
	resume := fs.Bool("resume", false, "reuse completed shards from an interrupted build of the same configuration")
	buildDir := fs.String("build-dir", "", "directory for in-flight shard runs and the build manifest (default: <out>.build)")
	created := fs.Int64("created", 0, "pin the artifact header timestamp (unix seconds; 0 = now, resume keeps the original)")
	stopAfter := fs.Int64("stop-after", 0, "stop cleanly after N freshly built shards (for testing resume; 0 = run to completion)")
	quiet := fs.Bool("q", false, "suppress progress output")
	fs.Parse(args)

	cfg := service.SealConfig{
		RootedRadius: *rootedRadius,
		Workers:      *workers,
		CreatedUnix:  *created,
		BuildDir:     *buildDir,
		Resume:       *resume,
	}
	for k := 1; k <= *cyclesK; k++ {
		cfg.CycleKs = append(cfg.CycleKs, k)
	}
	for k := 1; k <= *pathsK; k++ {
		cfg.PathKs = append(cfg.PathKs, k)
	}
	if *rootedDelta > 0 {
		for d := 1; d <= *rootedDelta; d++ {
			for k := 1; k <= *rootedK; k++ {
				if d == 3 && k == 2 {
					continue // beyond the supported rooted spaces
				}
				cfg.Rooted = append(cfg.Rooted, [2]int{d, k})
			}
		}
	}
	for k := 1; k <= *gridK; k++ {
		cfg.GridKs = append(cfg.GridKs, k)
	}

	prog := &sealProgress{stopAfter: *stopAfter}
	cfg.ShardDone = prog.shardDone

	// Plan the build up front: a -resume against a manifest written by a
	// different configuration fails here, before any work runs.
	build, err := service.NewSealFileBuild(*out, cfg)
	if err != nil {
		fatal(err)
	}
	prog.total = int64(build.Shards())

	start := time.Now()
	mgr := jobs.New(jobs.Config{
		Workers: 1,
		Runners: map[string]jobs.Runner{
			"seal": func(ctx context.Context, _ jobs.Spec, report jobs.Report) (any, error) {
				runCtx, cancel := context.WithCancel(ctx)
				defer cancel()
				prog.arm(report, cancel)
				res, err := build.Run(runCtx)
				if err != nil {
					if prog.plannedStop() && errors.Is(err, context.Canceled) && ctx.Err() == nil {
						// -stop-after fired: the interruption is the point.
						// Partial shards and the manifest are on disk; report
						// success so scripted kill-and-resume tests get a
						// clean exit.
						return map[string]any{
							"stopped_after_shards": prog.fresh,
							"resumed_shards":       prog.skipped,
							"total_shards":         prog.total,
							"resume":               true,
						}, nil
					}
					return nil, err
				}
				return res, nil
			},
		},
	})
	defer mgr.Close()

	job, err := mgr.Submit(jobs.Spec{Type: "seal"})
	if err != nil {
		fatal(err)
	}
	events, unsub, err := mgr.Subscribe(job.ID)
	if err != nil {
		fatal(err)
	}
	defer unsub()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)

	var final jobs.Job
watch:
	for {
		select {
		case <-sigc:
			signal.Stop(sigc)
			_ = mgr.Cancel(job.ID)
			if !*quiet {
				fmt.Fprintf(os.Stderr, "\ninterrupt: stopping; rerun with -resume to continue\n")
			}
		case ev := <-events:
			if !*quiet {
				fmt.Fprintf(os.Stderr, "\r\033[Kseal %s  %s", ev.Job.State, progressLine(ev.Job))
			}
			if ev.Job.State.Terminal() {
				final = ev.Job
				break watch
			}
		}
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}

	switch final.State {
	case jobs.StateDone:
		if err := printOutcome(final); err != nil {
			fatal(err)
		}
		if prog.plannedStop() {
			fmt.Printf("stopped after %d fresh shards (of %d); resume with -resume\n", prog.fresh, prog.total)
			return
		}
		fmt.Printf("sealed %s in %v (%d shards built, %d resumed)\n",
			*out, time.Since(start).Round(time.Millisecond), prog.fresh, prog.skipped)
	case jobs.StateCancelled:
		fmt.Fprintf(os.Stderr, "seal interrupted after %d/%d shards; completed work is checkpointed in %s — rerun with -resume\n",
			prog.done, prog.total, build.Dir())
		os.Exit(130)
	default:
		fatal(fmt.Errorf("seal job %s: %s", final.State, final.Error))
	}
}
