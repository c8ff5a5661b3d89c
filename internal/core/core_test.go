package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/problems"
)

func TestClassifyOnTreesTrivial(t *testing.T) {
	v, err := ClassifyOnTrees(problems.Trivial(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Constant || v.Level != 0 {
		t.Fatalf("trivial: %+v", v)
	}
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomTree(25, 3, rng)
	fout, err := v.Solve(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !problems.Trivial(3).Solves(g, nil, fout) {
		t.Error("solve output invalid")
	}
}

func TestClassifyOnTreesLowerBound(t *testing.T) {
	v, err := ClassifyOnTrees(problems.SinklessOrientation(3), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !v.LowerBound {
		t.Fatalf("sinkless orientation: %+v", v)
	}
	if _, err := v.Solve(graph.Path(3), nil); err == nil {
		t.Error("Solve on a lower-bound verdict must error")
	}
	if !strings.Contains(v.String(), "Ω(log* n)") {
		t.Errorf("verdict string %q", v.String())
	}
}

func TestClassifyCombined(t *testing.T) {
	r, err := Classify(problems.MIS(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != "Θ(log* n)" {
		t.Errorf("MIS cycles class %q", r.Cycles)
	}
	r2, err := Classify(problems.EdgeGrouping(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles != "n/a (inputs)" {
		t.Errorf("edge grouping cycles %q", r2.Cycles)
	}
	if !strings.HasPrefix(r2.Trees, "O(1)") {
		t.Errorf("edge grouping trees %q", r2.Trees)
	}
	out := RenderReports([]*Report{r, r2})
	if !strings.Contains(out, "mis") || !strings.Contains(out, "edge-grouping") {
		t.Error("render missing rows")
	}
}

func TestClassifyRejectsInvalidProblem(t *testing.T) {
	bad := problems.Trivial(2)
	bad.G = nil // corrupt
	if _, err := ClassifyOnTrees(bad, 2); err == nil {
		t.Error("invalid problem accepted")
	}
}

// TestGapPipelineConcurrent runs the tree gap pipeline over the Δ=2
// battery from four goroutines at once, sharing the problem values, and
// checks every verdict against a sequential run. Under -race it fails on
// any mutable state the pipeline shares across calls.
func TestGapPipelineConcurrent(t *testing.T) {
	battery := problems.All(2)
	summary := func(v *TreeVerdict) string {
		d := v.Detail
		return fmt.Sprintf("%s level=%d cycle=%d reason=%q steps=%d", v, v.Level, d.CycleWith, d.Reason, len(d.Seq.Steps))
	}
	want := make([]string, len(battery))
	for i, p := range battery {
		v, err := ClassifyOnTrees(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = summary(v)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range battery {
				v, err := ClassifyOnTrees(p, 2)
				if err != nil {
					t.Errorf("%s: %v", p.Name, err)
					return
				}
				if got := summary(v); got != want[i] {
					t.Errorf("%s: concurrent %s, sequential %s", p.Name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
