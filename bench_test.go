// Benchmark harness: one benchmark per experiment in DESIGN.md's
// per-experiment index, regenerating the series/tables behind every panel
// of the paper's Figure 1 and exercising each theorem's machinery at
// scale. Run with:
//
//	go test -bench=. -benchmem
//
// The measured quantity of interest is usually reported via b.ReportMetric
// (rounds, probes, radius) — wall-clock time is secondary for a
// complexity-landscape reproduction.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/landscape"
	"repro/internal/lcl"
	"repro/internal/lll"
	"repro/internal/local"
	"repro/internal/memo"
	"repro/internal/orderinv"
	"repro/internal/problems"
	"repro/internal/re"
	"repro/internal/rooted"
	"repro/internal/service"
	"repro/internal/shortcut"
	"repro/internal/store"
	"repro/internal/volume"
)

// E1: Figure 1 top-left — LOCAL on trees.
func BenchmarkFig1TreesLocal(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		for _, wit := range []string{"constant", "coloring", "leader"} {
			b.Run(fmt.Sprintf("%s/n=%d", wit, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				rounds := 0
				for i := 0; i < b.N; i++ {
					var res *local.Result
					var err error
					switch wit {
					case "constant":
						g := graph.RandomTree(n, 3, rng)
						res, err = local.Run(g, local.ConstantMachine{}, local.RunOpts{})
					case "coloring":
						g := graph.RandomTree(n, 3, rng)
						res, err = local.Run(g, local.NewColoring(3), local.RunOpts{IDs: local.RandomIDs(n, rng)})
					case "leader":
						g := graph.Path(n)
						res, err = local.Run(g, local.LeaderColoringMachine{}, local.RunOpts{})
					}
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
			})
		}
	}
}

// E2: Figure 1 top-right — LOCAL on oriented grids.
func BenchmarkFig1Grids(b *testing.B) {
	for _, side := range []int{8, 16, 32, 64} {
		sides := []int{side, side}
		for _, wit := range []string{"direction", "coloring", "dim0global"} {
			b.Run(fmt.Sprintf("%s/side=%d", wit, side), func(b *testing.B) {
				rng := rand.New(rand.NewSource(2))
				g := graph.Torus(sides...)
				ids := grid.RandomDimIDs(sides, rng)
				rounds := 0
				for i := 0; i < b.N; i++ {
					var m grid.Machine
					switch wit {
					case "direction":
						m = grid.DirectionMachine{}
					case "coloring":
						m = grid.GridColoring{D: 2}
					case "dim0global":
						m = grid.Dim0TwoColoring{}
					}
					res, err := grid.Run(g, sides, ids, m, 0)
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
			})
		}
	}
}

// E3: Figure 1 bottom-left — the general-graph intermediate region via
// the shortcut construction: radius vs window.
func BenchmarkFig1GeneralLocal(b *testing.B) {
	for _, m := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("pathlen=%d", m), func(b *testing.B) {
			var stats shortcut.Stats
			for i := 0; i < b.N; i++ {
				inst := shortcut.Build(m)
				var err error
				_, stats, err = shortcut.Solve(inst)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.MaxRadius), "radius")
			b.ReportMetric(float64(stats.MaxWindow), "window")
		})
	}
}

// E4: Figure 1 bottom-right — VOLUME probes.
func BenchmarkFig1Volume(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		for _, wit := range []string{"constant", "coloring", "parity"} {
			if wit == "parity" && n > 1024 {
				continue // stateless replay makes the Θ(n) witness O(n²)/node
			}
			b.Run(fmt.Sprintf("%s/n=%d", wit, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				g := graph.Path(n)
				ids := volume.RandomIDs(n, rng)
				probes := 0
				for i := 0; i < b.N; i++ {
					var a volume.Algorithm
					switch wit {
					case "constant":
						a = volume.Constant{}
					case "coloring":
						a = volume.PathColoring{}
					case "parity":
						a = volume.GlobalParity{}
					}
					res, err := volume.Run(g, a, volume.RunOpts{IDs: ids})
					if err != nil {
						b.Fatal(err)
					}
					probes = res.MaxProbes
				}
				b.ReportMetric(float64(probes), "probes")
			})
		}
	}
}

// E5: the Theorem 1.1 gap pipeline across the battery.
func BenchmarkGapPipelineTrees(b *testing.B) {
	for _, p := range problems.All(2) {
		b.Run(p.Name, func(b *testing.B) {
			degrees := degreesOf(p)
			lim := re.Limits{MaxLabels: 40, MaxConfigs: 200_000, MaxExpandIter: 50_000}
			var verdict re.Verdict
			for i := 0; i < b.N; i++ {
				res, err := re.RunGapPipeline(p, degrees, re.Pruned, lim, 2)
				if err != nil {
					b.Fatal(err)
				}
				verdict = res.Verdict
			}
			b.ReportMetric(float64(verdict), "verdict")
		})
	}
}

// BenchmarkGapPipelineTreesDelta3 is a cold trees compute at Δ=3: the gap
// pipeline at default Limits and 6 levels, core.ClassifyOnTrees's work,
// on the battery problems whose maximal-configuration searches cost most.
func BenchmarkGapPipelineTreesDelta3(b *testing.B) {
	names := []string{"mis", "maximal-matching", "4-coloring", "5-edge-coloring"}
	battery := map[string]*lcl.Problem{}
	for _, p := range problems.All(3) {
		battery[p.Name] = p
	}
	for _, name := range names {
		p := battery[name]
		if p == nil {
			b.Fatalf("no %s in the Δ=3 battery", name)
		}
		b.Run(name, func(b *testing.B) {
			degrees := degreesOf(p)
			var verdict re.Verdict
			for i := 0; i < b.N; i++ {
				res, err := re.RunGapPipeline(p, degrees, re.Pruned, re.Limits{}, 6)
				if err != nil {
					b.Fatal(err)
				}
				verdict = res.Verdict
			}
			b.ReportMetric(float64(verdict), "verdict")
		})
	}
}

// BenchmarkGapPipelineTreesCold is the compute behind every request of
// perfbench's cold-trees workload: core.ClassifyOnTrees at two levels on
// each Δ=2 battery problem but 3-edge-coloring, whose round elimination
// alone runs for seconds. BenchmarkGapPipelineTrees cannot serve: it
// runs the whole battery, 3-edge-coloring included, under tighter Limits
// (MaxExpandIter 50,000) that keep that problem cheap, while a served
// request runs at the default Limits measured here.
func BenchmarkGapPipelineTreesCold(b *testing.B) {
	for _, p := range problems.All(2) {
		if p.Name == "3-edge-coloring" {
			continue
		}
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ClassifyOnTrees(p, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGapPipelineAllocs is the allocation budget for a cold trees
// compute: the gap pipeline on MIS at Δ=2, two levels, stays within 370
// allocations and 64,000 bytes (339 and 55,352 measured with Go 1.24 on
// linux/amd64).
func TestGapPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the budget is set for non-race builds")
	}
	p := problems.MIS(2)
	degrees := degreesOf(p)
	run := func() {
		if _, err := re.RunGapPipeline(p, degrees, re.Pruned, re.Limits{}, 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, run)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("RunGapPipeline(mis, Δ=2, 2 levels): %v allocs, %d bytes", allocs, bytes)
	if allocs > 370 {
		t.Errorf("RunGapPipeline(mis, Δ=2, 2 levels): %v allocs, want <= 370", allocs)
	}
	if bytes > 64_000 {
		t.Errorf("RunGapPipeline(mis, Δ=2, 2 levels): %d bytes, want <= 64000", bytes)
	}
}

// E6: Theorem 3.4 failure-probability bookkeeping.
func BenchmarkFailureEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bounds := re.IterateBound34(1<<30, 3, 1, 31, 4)
		_ = bounds
		_ = re.MinTowerHeightForGap(2, 3, 1)
	}
}

// E7: the Lemma 3.9 lift on brute-force R̄R solutions.
func BenchmarkLift(b *testing.B) {
	p := problems.Coloring(3, 2)
	rStep, err := re.Apply(p, re.OpR, re.Pruned, re.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	rrStep, err := re.Apply(rStep.Prob, re.OpRBar, re.Pruned, re.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	g := graph.Path(4)
	foutRR, ok := rrStep.Prob.BruteForceSolve(g, nil)
	if !ok {
		b.Fatal("unsolvable")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := re.LiftOnce(p, rStep, rrStep, g, nil, nil, foutRR); err != nil {
			b.Fatal(err)
		}
	}
}

// E8: the VOLUME gap machinery — Lemma 4.2 Ramsey transform + speed-up.
func BenchmarkVolumeGap(b *testing.B) {
	profiles := []orderinv.TupleProfile{{Deg: 1, In: []int{0}}, {Deg: 2, In: []int{0, 0}}}
	for i := 0; i < b.N; i++ {
		w, err := orderinv.MakeOrderInvariant(benchVolumeAlg{}, 8, 10, 4, profiles)
		if err != nil {
			b.Fatal(err)
		}
		fast := orderinv.SpeedupVolume{Inner: w, N0: 8}
		g := graph.Path(64)
		if _, err := volume.Run(g, fast, volume.RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

type benchVolumeAlg struct{}

func (benchVolumeAlg) Name() string      { return "bench-compare" }
func (benchVolumeAlg) MaxProbes(int) int { return 1 }
func (benchVolumeAlg) Step(n, i int, seq []volume.Tuple) (volume.Probe, bool) {
	if i > 1 {
		return volume.Probe{}, false
	}
	return volume.Probe{J: 0, P: 0}, true
}
func (benchVolumeAlg) Output(n int, seq []volume.Tuple) []int {
	out := make([]int, seq[0].Deg)
	if len(seq) > 1 && seq[1].ID > seq[0].ID {
		for p := range out {
			out[p] = 1
		}
	}
	return out
}

// E9: the grid gap — Propositions 5.3–5.5 pipeline pieces.
func BenchmarkGridGap(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	sides := []int{16, 16}
	g := graph.Torus(sides...)
	for i := 0; i < b.N; i++ {
		ids := grid.RandomDimIDs(sides, rng)
		combined := grid.CombinedIDs(g, sides, ids)
		if _, err := local.Run(g, local.ConstantMachine{}, local.RunOpts{IDs: combined}); err != nil {
			b.Fatal(err)
		}
		if _, err := grid.Run(g, sides, grid.SequentialDimIDs(sides), grid.GridColoring{D: 2}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// E10: the classification table.
func BenchmarkClassify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := landscape.ClassificationTable(2); err != nil {
			b.Fatal(err)
		}
	}
}

// E11: LCA far probes vs VOLUME probes.
func BenchmarkLCAFarProbes(b *testing.B) {
	g := graph.Path(4096)
	for i := 0; i < b.N; i++ {
		res, err := volume.RunLCA(g, volume.AsLCA{Inner: volume.PathColoring{}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.FarProbes != 0 {
			b.Fatal("unexpected far probes")
		}
	}
}

// E12: the Lemma 2.6 general-LCL → node-edge-checkable encoding.
func BenchmarkNECEncoding(b *testing.B) {
	gl := &lcl.General{
		Name:     "parity-check",
		InNames:  []string{"·"},
		OutNames: []string{"0", "1"},
		Radius:   1,
		Check: func(ball *graph.Ball, out [][]int) bool {
			// Root's labels must differ from each visible neighbor's.
			for p, j := range ball.Port[0] {
				if j < 0 {
					continue
				}
				for q := range out[j] {
					if ball.Port[j][q] == 0 && out[j][q] == out[0][p] {
						return false
					}
				}
			}
			return true
		},
	}
	universe := []lcl.UniverseEntry{
		{G: graph.Path(2)}, {G: graph.Path(3)}, {G: graph.Path(4)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gl.ToNodeEdgeCheckable(universe, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 1 (DESIGN.md decision 2): pruned vs faithful round elimination.
func BenchmarkREPruning(b *testing.B) {
	p := problems.ConsistentOrientation()
	for _, mode := range []re.Mode{re.Pruned, re.Faithful} {
		name := "pruned"
		if mode == re.Faithful {
			name = "faithful"
		}
		b.Run(name, func(b *testing.B) {
			labels := 0
			for i := 0; i < b.N; i++ {
				r, err := re.Apply(p, re.OpR, mode, re.Limits{})
				if err != nil {
					b.Fatal(err)
				}
				rr, err := re.Apply(r.Prob, re.OpRBar, mode, re.Limits{})
				if err != nil {
					b.Fatal(err)
				}
				labels = rr.Prob.NumOut()
			}
			b.ReportMetric(float64(labels), "labels")
		})
	}
}

// Ablation 2 (DESIGN.md decision 3): canonical ball encoding cost.
func BenchmarkCanonicalEncoding(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomTree(4096, 3, rng)
	ids := local.RandomIDs(4096, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ball := graph.ExtractBall(g, i%4096, 3, graph.BallOpts{IDs: ids})
		_ = ball.Encode()
		_ = ball.EncodeOrderInvariant()
	}
}

func degreesOf(p *lcl.Problem) []int {
	var ds []int
	for d := range p.Node {
		ds = append(ds, d)
	}
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds
}

// E13: the exhaustive cycle census — regenerates the cycle row of the
// landscape (which classes are populated, which are empty) for k = 2 and
// k = 3 output labels.
func BenchmarkCensusCycles(b *testing.B) {
	for _, k := range []int{2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var c *enumerate.Census
			for i := 0; i < b.N; i++ {
				var err error
				c, err = enumerate.Run(k, k == 3) // dedup the big space
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.RawByClass[classify.Constant]), "constant")
			b.ReportMetric(float64(c.RawByClass[classify.LogStar]), "logstar")
			b.ReportMetric(float64(c.RawByClass[classify.Global]), "global")
			b.ReportMetric(float64(c.RawByClass[classify.Unsolvable]), "unsolvable")
		})
	}
}

// E14: constant-round algorithm synthesis on cycles — the constructive
// side of the census cross-validation (O(1) ⟺ synthesizable).
func BenchmarkSynthesis(b *testing.B) {
	full := uint(1)<<uint(enumerate.PairCount(2)) - 1
	trivial := enumerate.FromMasks(2, full, full)
	b.Run("succeed/trivial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := enumerate.Synthesize(trivial, 1); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("refute/2coloring", func(b *testing.B) {
		n2 := uint(1)<<0 | uint(1)<<2 // {A,A}, {B,B} node configs
		e := uint(1) << 1             // {A,B} edges
		p := enumerate.FromMasks(2, n2, e)
		for i := 0; i < b.N; i++ {
			if _, ok, err := enumerate.Synthesize(p, 2); err != nil || ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}

// E15: class (C) — distributed Moser–Tardos on sinkless orientation.
// Rounds grow like O(log n) (the resampling core; the poly log log n
// algorithms of class (C) add a shattering phase on top).
func BenchmarkLLLSinklessOrientation(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			g := graph.RandomRegular(n, 5, rng)
			sys, dec := lll.Sinkless(g, 5)
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := lll.RunParallel(sys, lll.Opts{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if v := dec.CheckSinkless(res.Assignment, 5); v != -1 {
					b.Fatalf("sink at %d", v)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// E16: rooted-tree machinery — trimming, DP, and the Question 1.7
// semidecision search.
func BenchmarkRootedSemidecision(b *testing.B) {
	hc := rooted.HeightCap(2, 2)
	b.Run("synthesize/height-cap-2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := rooted.Synthesize(hc, 2); !ok {
				b.Fatal("height-cap-2 should synthesize at radius 2")
			}
		}
	})
	pcd := rooted.ParentChildDistinct(2, 3)
	b.Run("refute/parent-child-distinct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := rooted.Synthesize(pcd, 2); ok {
				b.Fatal("refutation expected")
			}
		}
	})
	b.Run("trim+dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rooted.Trim(pcd)
			_ = rooted.SolvableOnAllDepths(pcd, 12)
		}
	})
}

// E17: paths-with-inputs solvability (Section 1.4: decidable but
// PSPACE-hard — the subset construction's exponential state space is the
// expected cost).
func BenchmarkPathsWithInputs(b *testing.B) {
	for _, k := range []int{3, 4} {
		b.Run(fmt.Sprintf("list-coloring-%d", k), func(b *testing.B) {
			p := benchListColoring(k)
			for i := 0; i < b.N; i++ {
				if _, err := classify.PathsWithInputs(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchListColoring mirrors the classify test fixture: k-coloring where
// input label i forbids color i on its half-edge.
func benchListColoring(k int) *lcl.Problem {
	colors := make([]string, k)
	for i := range colors {
		colors[i] = string(rune('A' + i))
	}
	ins := append(append([]string(nil), colors...), "·")
	for i := range colors {
		ins[i] = "¬" + colors[i]
	}
	bd := lcl.NewBuilder("list-coloring", ins, colors)
	for _, c := range colors {
		bd.Node(c)
		bd.Node(c, c)
		for _, d := range colors {
			if c != d {
				bd.Edge(c, d)
			}
		}
	}
	for i, in := range ins {
		for j, c := range colors {
			if i != j {
				bd.Allow(in, c)
			}
		}
	}
	return bd.MustBuild()
}

// Ablation 3: parallel vs sequential Moser–Tardos — the distributed
// variant pays per-round coordination but needs exponentially fewer
// passes over the event set.
func BenchmarkLLLParallelVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomRegular(2048, 5, rng)
	sys, _ := lll.Sinkless(g, 5)
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lll.RunParallel(sys, lll.Opts{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lll.RunSequential(sys, lll.Opts{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E18: the path census — solvability over the whole path-LCL space
// (endpoint × interior × edge constraint masks).
func BenchmarkPathCensus(b *testing.B) {
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var c *enumerate.PathCensus
			for i := 0; i < b.N; i++ {
				var err error
				c, err = enumerate.RunPaths(k)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.SolvableAll), "solvable")
			b.ReportMetric(float64(c.UnsolvableSome), "unsolvable")
		})
	}
}

// Ablation 4: derandomization (method of conditional expectations) vs
// randomized resampling on the same LLL instance.
func BenchmarkLLLDerandomizeVsResample(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomRegular(512, 5, rng)
	sys, _ := lll.Sinkless(g, 5)
	b.Run("derandomize", func(b *testing.B) {
		violated := 0
		for i := 0; i < b.N; i++ {
			res, err := lll.Derandomize(sys)
			if err != nil {
				b.Fatal(err)
			}
			violated = len(res.Violated)
		}
		b.ReportMetric(float64(violated), "violations")
	})
	b.Run("resample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lll.RunParallel(sys, lll.Opts{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E19: the classification service — cold classification (canonicalize +
// decide + fill cache) vs warm (canonicalize + cache hit). The warm/cold
// ratio is the memoization payoff for repeated traffic; the acceptance
// target is >= 10x on the trees pipeline.
func BenchmarkClassifyMemo(b *testing.B) {
	witnesses := []struct {
		name string
		req  service.Request
	}{
		// Cheap decider: cold ≈ warm, since canonicalization dominates
		// both sides — the honest lower end of the memoization payoff.
		{"cycles/3-coloring", service.Request{Problem: problems.Coloring(3, 2), Mode: "cycles"}},
		// Expensive deciders: the subset construction (PSPACE-hard
		// problem class) and the RE gap pipeline; here the warm/cold
		// ratio is 10x–1000x.
		{"paths/list-coloring-3", service.Request{Problem: benchListColoring(3), Mode: "paths-inputs"}},
		{"trees/mis", service.Request{Problem: problems.MIS(2), Mode: "trees", MaxLevels: 2}},
		{"trees/matching", service.Request{Problem: problems.MaximalMatching(2), Mode: "trees", MaxLevels: 2}},
	}
	for _, wit := range witnesses {
		b.Run("cold/"+wit.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := service.New(service.Config{Workers: 1})
				if _, err := e.Classify(wit.req); err != nil {
					b.Fatal(err)
				}
				e.Close()
			}
		})
		b.Run("warm/"+wit.name, func(b *testing.B) {
			e := service.New(service.Config{Workers: 1})
			defer e.Close()
			if _, err := e.Classify(wit.req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				resp, err := e.Classify(wit.req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.CacheHit {
					hits++
				}
			}
			if hits != b.N {
				b.Fatalf("%d/%d warm requests missed the cache", b.N-hits, b.N)
			}
		})
	}
}

// Observability overhead: the warm memo-hit path (the hottest request
// shape the server serves) with instrumentation on vs off. The ns/op
// delta is the real instrumentation cost (a few time.Now calls plus
// atomic updates, ~2% locally); TestClassifyInstrumentedAllocs gates
// the allocations.
func BenchmarkClassifyInstrumented(b *testing.B) {
	req := service.Request{Problem: problems.Coloring(3, 2), Mode: "cycles"}
	for _, variant := range []struct {
		name       string
		disableObs bool
	}{
		{"bare", true},
		{"instrumented", false},
	} {
		b.Run(variant.name, func(b *testing.B) {
			e := service.New(service.Config{Workers: 1, DisableObs: variant.disableObs})
			defer e.Close()
			if _, err := e.Classify(req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := e.Classify(req)
				if err != nil {
					b.Fatal(err)
				}
				if !resp.CacheHit {
					b.Fatal("warm request missed the cache")
				}
			}
		})
	}
}

// TestClassifyInstrumentedAllocs is the allocation gate for
// BenchmarkClassifyInstrumented's request shape: the obs layer must stay
// allocation-free on the hot path, so a warm memo hit allocates exactly
// as much instrumented as bare, and at most 31 times.
func TestClassifyInstrumentedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race, so pooled paths have no stable allocation count")
	}
	req := service.Request{Problem: problems.Coloring(3, 2), Mode: "cycles"}
	allocs := map[bool]float64{}
	for _, disableObs := range []bool{true, false} {
		e := service.New(service.Config{Workers: 1, DisableObs: disableObs})
		if _, err := e.Classify(req); err != nil {
			t.Fatal(err)
		}
		allocs[disableObs] = testing.AllocsPerRun(200, func() {
			resp, err := e.Classify(req)
			if err != nil || !resp.CacheHit {
				t.Fatalf("warm request: resp %+v, err %v", resp, err)
			}
		})
		e.Close()
	}
	bare, instrumented := allocs[true], allocs[false]
	if instrumented != bare {
		t.Errorf("instrumentation adds allocations: bare %v, instrumented %v allocs/op", bare, instrumented)
	}
	if bare > 31 {
		t.Errorf("warm memo hit: %v allocs/op, want <= 31", bare)
	}
}

// E20: census cold vs warm — a census re-run against a warm memo cache
// skips every classification (canonicalization remains, which is the
// point: dedup itself rides the canon keys).
func BenchmarkCensusMemo(b *testing.B) {
	for _, k := range []int{2, 3} {
		b.Run(fmt.Sprintf("cold/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := enumerate.RunWith(k, true, enumerate.RunOpts{Cache: memo.New(0, 0)}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("warm/k=%d", k), func(b *testing.B) {
			cache := memo.New(0, 0)
			if _, err := enumerate.RunWith(k, true, enumerate.RunOpts{Cache: cache}); err != nil {
				b.Fatal(err)
			}
			before := cache.Stats().Hits
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enumerate.RunWith(k, true, enumerate.RunOpts{Cache: cache}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cache.Stats().Hits-before)/float64(b.N), "hits/op")
		})
	}
}

// E21: batch serving throughput through the vectorized pipeline, over
// the serving shapes that matter: a mixed-decider batch with duplicates
// (the lclserver shape), a duplicate-heavy batch (intra-batch dedup
// payoff), a unique-heavy batch (the dedup stage's overhead floor), and
// a sealed-hit batch (the zero-alloc steady state the CI gate pins via
// the allocs/item metric).
func BenchmarkClassifyBatch(b *testing.B) {
	b.Run("mixed", func(b *testing.B) {
		e := service.New(service.Config{Workers: 8})
		defer e.Close()
		var reqs []service.Request
		for i := 0; i < 4; i++ {
			reqs = append(reqs,
				service.Request{Problem: problems.Coloring(3, 2), Mode: "cycles"},
				service.Request{Problem: problems.Coloring(2, 2), Mode: "cycles"},
				service.Request{Problem: problems.Coloring(3, 2), Mode: "paths-inputs"},
				service.Request{Problem: problems.Trivial(2), Mode: "synthesize"},
			)
		}
		before := e.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, item := range e.ClassifyBatch(reqs) {
				if item.Err != nil {
					b.Fatal(item.Err)
				}
			}
		}
		st := e.Stats()
		b.ReportMetric(float64(st.Cache.Hits-before.Cache.Hits)/float64(b.N), "hits/op")
		b.ReportMetric(float64(st.Coalesced-before.Coalesced)/float64(b.N), "coalesced/op")
	})

	// Duplicate-heavy vs unique-heavy: the same warm engine and batch
	// size, differing only in how many distinct problems the batch
	// contains. Duplicates are pointer-shared (the HTTP handler decodes
	// byte-identical payloads once), so dedup rides the identity
	// prefilter and skips canonicalization too.
	benchBatchShape := func(b *testing.B, distinct, copies int) {
		e := service.New(service.Config{Workers: 8})
		defer e.Close()
		pool := benchMaskProblems(distinct)
		var reqs []service.Request
		for c := 0; c < copies; c++ {
			for _, p := range pool {
				reqs = append(reqs, service.Request{Problem: p, Mode: "cycles"})
			}
		}
		bt := e.NewBatch()
		defer bt.Release()
		ctx := context.Background()
		bt.Classify(ctx, reqs) // warm: fill cache and arena
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, item := range bt.Classify(ctx, reqs) {
				if item.Err != nil {
					b.Fatal(item.Err)
				}
			}
		}
		b.ReportMetric(float64(len(reqs)*b.N)/b.Elapsed().Seconds(), "items/sec")
	}
	b.Run("dup-heavy", func(b *testing.B) { benchBatchShape(b, 64, 4) })
	b.Run("unique-heavy", func(b *testing.B) { benchBatchShape(b, 256, 1) })

	// Sealed-hit steady state: every item resolves in the sealed table
	// and the engine's memoized verdict wrappers — 0 allocs per item,
	// gated in CI on the allocs/item metric.
	b.Run("sealed-hit", func(b *testing.B) {
		tbl := benchSealedTable(b)
		e := service.New(service.Config{Sealed: tbl, DisableObs: true})
		defer e.Close()
		var reqs []service.Request
		for n2 := uint(0); n2 < 8; n2++ {
			for edge := uint(0); edge < 8; edge++ {
				reqs = append(reqs, service.Request{Problem: enumerate.FromMasks(2, n2, edge), Mode: "cycles"})
			}
		}
		bt := e.NewBatch()
		defer bt.Release()
		ctx := context.Background()
		for _, item := range bt.Classify(ctx, reqs) { // warm arena + verdict memos
			if item.Err != nil {
				b.Fatal(item.Err)
			}
			if !item.Response.Sealed {
				b.Fatal("batch item missed the sealed table")
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if items := bt.Classify(ctx, reqs); items[0].Err != nil {
				b.Fatal(items[0].Err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*len(reqs)), "allocs/item")
		b.ReportMetric(float64(len(reqs)*b.N)/b.Elapsed().Seconds(), "items/sec")
	})
}

// benchMaskProblems enumerates n distinct valid k=2 cycle problems from
// the mask space, deterministically.
func benchMaskProblems(n int) []*lcl.Problem {
	space := uint(1) << uint(enumerate.PairCount(2))
	out := make([]*lcl.Problem, 0, n)
	for n2 := uint(1); n2 < space && len(out) < n; n2++ {
		for edge := uint(1); edge < space && len(out) < n; edge++ {
			out = append(out, enumerate.FromMasks(2, n2, edge))
		}
	}
	return out
}

// benchSealedTable builds, saves, and reloads a k=2 sealed table — the
// same artifact path lclserver -sealed uses.
func benchSealedTable(b *testing.B) *store.SealedTable {
	b.Helper()
	sealed, err := service.BuildSealed(service.SealConfig{CycleKs: []int{2}})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "landscape.lclseal")
	if _, err := store.SaveSealed(path, sealed); err != nil {
		b.Fatal(err)
	}
	tbl, err := store.LoadSealed(path)
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// E1 addendum: the deterministic/randomized contrast on the MIS row —
// Linial-based deterministic MIS vs Luby's randomized MIS on the same
// trees.
func BenchmarkMISDetVsLuby(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		rng := rand.New(rand.NewSource(10))
		g := graph.RandomTree(n, 4, rng)
		ids := local.RandomIDs(n, rng)
		b.Run(fmt.Sprintf("deterministic/n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := local.Run(g, local.NewMIS(4), local.RunOpts{IDs: ids})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(fmt.Sprintf("luby/n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := local.Run(g, local.LubyMIS{}, local.RunOpts{Random: true, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// httpDiscard is a reusable ResponseWriter that keeps the status and
// the last body written.
type httpDiscard struct {
	header http.Header
	status int
	body   []byte
}

func (w *httpDiscard) Header() http.Header    { return w.header }
func (w *httpDiscard) WriteHeader(status int) { w.status = status }
func (w *httpDiscard) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

// sealedHitBody returns a /v1/classify body for a k=3 cycle mask
// problem and a sealed table holding the k=3 cycle census, so the
// request is a sealed hit on an engine over that table.
func sealedHitBody(tb testing.TB) ([]byte, *store.SealedTable) {
	tb.Helper()
	sealed, err := service.BuildSealed(service.SealConfig{CycleKs: []int{3}})
	if err != nil {
		tb.Fatal(err)
	}
	buf, err := store.EncodeSealed(sealed)
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := store.OpenSealed(buf)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := json.Marshal(enumerate.FromMasks(3, 0b101101, 0b011010))
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"mode": service.ModeCycles, "problem": json.RawMessage(raw)})
	if err != nil {
		tb.Fatal(err)
	}
	return body, tbl
}

// sealedHitAllocs serves body through h once to check that it is a
// sealed hit, then returns the allocations of one request.
func sealedHitAllocs(t *testing.T, h http.Handler, body []byte) float64 {
	t.Helper()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", rd)
	w := &httpDiscard{header: http.Header{}}
	serve := func() {
		rd.Reset(body)
		clear(w.header)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	serve()
	if w.status != http.StatusOK || !bytes.Contains(w.body, []byte(`"sealed":true`)) {
		t.Fatalf("status %d, body %s: want a sealed hit", w.status, w.body)
	}
	return testing.AllocsPerRun(200, serve)
}

// TestClassifyHTTPAllocs is the allocation budget for the whole
// instrumented /v1/classify sealed-hit path: middleware, body read,
// request decode, sealed probe and response encode for a k=3 cycle
// problem. It took 113 allocations before the one-pass request decoder,
// and 35 before replies were written without reflection and trace
// spans were kept inline.
func TestClassifyHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race, so pooled paths have no stable allocation count")
	}
	body, tbl := sealedHitBody(t)
	e := service.New(service.Config{Workers: 1, Sealed: tbl})
	defer e.Close()
	if allocs := sealedHitAllocs(t, service.NewHandler(e), body); allocs > 14 {
		t.Errorf("sealed-hit /v1/classify: %v allocs/op, want <= 14", allocs)
	}
}

// TestMiddlewareHTTPAllocs: obs.Middleware adds a fixed handful of
// allocations to a sealed-hit request over the bare route table: the
// trace, which holds every per-request piece of observability state, its
// minted request ID, the context value that carries it and the request
// copy that carries the context.
func TestMiddlewareHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race, so pooled paths have no stable allocation count")
	}
	body, tbl := sealedHitBody(t)
	bare := service.New(service.Config{Workers: 1, Sealed: tbl, DisableObs: true})
	defer bare.Close()
	full := service.New(service.Config{Workers: 1, Sealed: tbl})
	defer full.Close()
	bareAllocs := sealedHitAllocs(t, service.NewHandler(bare), body)
	fullAllocs := sealedHitAllocs(t, service.NewHandler(full), body)
	t.Logf("bare %v, instrumented %v allocs/op", bareAllocs, fullAllocs)
	if added := fullAllocs - bareAllocs; added > 4 {
		t.Errorf("obs.Middleware adds %v allocs/op (bare %v, instrumented %v), want <= 4", added, bareAllocs, fullAllocs)
	}
}
