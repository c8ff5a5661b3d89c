package re

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/problems"
)

// gapGoldenLine renders one pipeline run as a golden line: problem, Δ,
// maxLevels, verdict, level, CycleWith, and the SHA-256 of every step's
// Canonical string. Reason is left out: it quotes error text, not a
// verdict.
func gapGoldenLine(name string, delta, maxLevels int, res *GapResult) string {
	hashes := make([]string, len(res.Seq.Steps))
	for i, st := range res.Seq.Steps {
		sum := sha256.Sum256([]byte(Canonical(st.Prob)))
		hashes[i] = hex.EncodeToString(sum[:])
	}
	return fmt.Sprintf("%s\tdelta=%d\tmax=%d\t%s\tlevel=%d\tcycle=%d\t%s",
		name, delta, maxLevels, res.Verdict, res.Level, res.CycleWith, strings.Join(hashes, ","))
}

// gapGoldenRun runs the battery the golden file covers and returns its
// lines in battery order.
func gapGoldenRun(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, delta := range []int{2, 3} {
		for _, p := range problems.All(delta) {
			// Left out: each took seconds when the golden file was recorded.
			if p.Name == "3-edge-coloring" || p.Name == "4-coloring" {
				continue
			}
			var degrees []int
			for d := range p.Node {
				degrees = append(degrees, d)
			}
			sort.Ints(degrees)
			for maxLevels := 1; maxLevels <= 2; maxLevels++ {
				res, err := RunGapPipeline(p, degrees, Pruned, Limits{}, maxLevels)
				if err != nil {
					t.Fatalf("%s Δ=%d max=%d: %v", p.Name, delta, maxLevels, err)
				}
				lines = append(lines, gapGoldenLine(p.Name, delta, maxLevels, res))
			}
		}
	}
	return lines
}

// TestGapPipelineGolden pins the gap pipeline's verdicts, levels and
// every step's canonical form across the Δ=2 and Δ=3 batteries to
// testdata/gap_golden.txt. Any change to candidate generation, label
// order or constraint construction shows up as a hash mismatch.
func TestGapPipelineGolden(t *testing.T) {
	f, err := os.Open("testdata/gap_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := gapGoldenRun(t)
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
