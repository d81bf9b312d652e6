package analysis

import (
	"context"
	"fmt"
	"testing"

	"vppb/internal/hb"
	"vppb/internal/progen"
	"vppb/internal/recorder"
	"vppb/internal/trace"
)

// genOptimizeCPUs is the CPU grid of the generated-program sweeps. It
// includes counts off the powers of two and counts above every generated
// program's thread count.
var genOptimizeCPUs = []int{1, 2, 3, 4, 8, 16}

// checkOptimizeSeed records generated program seed, sweeps every policy
// over genOptimizeCPUs with and without pruning, and requires the same
// winner from both and lb(c) <= the simulated duration of every
// candidate, with no slack.
func checkOptimizeSeed(t *testing.T, seed uint64) {
	t.Helper()
	log, _, err := recorder.Record(progen.Program(seed), recorder.Options{Program: fmt.Sprintf("gen-%d", seed)})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	prof, err := trace.BuildProfile(log)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	a, err := hb.Analyze(log)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	opts := OptimizeOptions{CPUCounts: genOptimizeCPUs}
	pruned, err := Optimize(context.Background(), prof, a, opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	opts.Exhaustive = true
	exh, err := Optimize(context.Background(), prof, a, opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	pw, ew := pruned.Winner, exh.Winner
	if pw.Policy != ew.Policy || pw.CPUs != ew.CPUs || pw.Duration != ew.Duration {
		t.Errorf("seed %d: pruned winner %s@%d %v, exhaustive winner %s@%d %v",
			seed, pw.Policy, pw.CPUs, pw.Duration, ew.Policy, ew.CPUs, ew.Duration)
	}
	for _, c := range exh.Candidates {
		if c.LowerBound > c.Duration {
			t.Errorf("seed %d: %s@%d lower bound %v exceeds simulated %v",
				seed, c.Policy, c.CPUs, c.LowerBound, c.Duration)
		}
	}
}

// critPathSeeds are the generated programs on which pruning by
// max(CritPath, Work/c) picked a different winner from the exhaustive
// sweep: their recorded critical path is longer than some replay.
var critPathSeeds = map[uint64]bool{4: true, 60: true, 107: true, 113: true, 190: true, 208: true, 283: true, 303: true, 364: true, 372: true}

// TestOptimizeGeneratedPrograms is the pruning-soundness property over
// generated programs 0-399, every policy and CPU counts 1-16. The seeds
// that broke the critical-path bound run as named cases.
func TestOptimizeGeneratedPrograms(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		name := fmt.Sprintf("seed%d", seed)
		if critPathSeeds[seed] {
			name = "critpath_" + name
		}
		t.Run(name, func(t *testing.T) { checkOptimizeSeed(t, seed) })
	}
}
