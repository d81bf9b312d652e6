package analysis

import (
	"context"
	"testing"

	"vppb/internal/hb"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

func optimizeProfile(t *testing.T, name string, threads int, scale float64) (*trace.Profile, *hb.Analysis) {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Threads: threads, Scale: scale}), recorder.Options{Program: name})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.BuildProfile(log)
	if err != nil {
		t.Fatal(err)
	}
	a, err := hb.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	return prof, a
}

// TestOptimizeMatchesExhaustive is the sweep-soundness test: over
// workloads with very different parallelism bounds, the pruned sweep must
// return exactly the winner and exactly the per-candidate durations the
// exhaustive sweep computes.
func TestOptimizeMatchesExhaustive(t *testing.T) {
	cases := []struct {
		name    string
		threads int
		scale   float64
	}{
		{"fft", 8, 0.25},
		{"prodcons", 0, 0.15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prof, a := optimizeProfile(t, tc.name, tc.threads, tc.scale)
			pruned, err := Optimize(context.Background(), prof, a, OptimizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			exh, err := Optimize(context.Background(), prof, a, OptimizeOptions{Exhaustive: true})
			if err != nil {
				t.Fatal(err)
			}
			if pruned.Winner.Policy != exh.Winner.Policy || pruned.Winner.CPUs != exh.Winner.CPUs {
				t.Fatalf("winner mismatch: pruned %s@%d vs exhaustive %s@%d",
					pruned.Winner.Policy, pruned.Winner.CPUs, exh.Winner.Policy, exh.Winner.CPUs)
			}
			if pruned.Winner.Duration != exh.Winner.Duration {
				t.Fatalf("winner duration mismatch: %v vs %v", pruned.Winner.Duration, exh.Winner.Duration)
			}
			if len(pruned.Candidates) != len(exh.Candidates) {
				t.Fatalf("grid size mismatch: %d vs %d", len(pruned.Candidates), len(exh.Candidates))
			}
			for i, pc := range pruned.Candidates {
				ec := exh.Candidates[i]
				if pc.Policy != ec.Policy || pc.CPUs != ec.CPUs {
					t.Fatalf("candidate %d order mismatch: %s@%d vs %s@%d", i, pc.Policy, pc.CPUs, ec.Policy, ec.CPUs)
				}
				if pc.Pruned {
					// The pruning proof: the bound must genuinely exceed the
					// configuration's true (exhaustively simulated) duration's
					// achievable best — verify lb > exhaustive duration is
					// consistent, i.e. the pruned candidate would have lost.
					if ec.Duration < pruned.Winner.Duration {
						t.Fatalf("pruned candidate %s@%d actually wins: %v < %v",
							pc.Policy, pc.CPUs, ec.Duration, pruned.Winner.Duration)
					}
					continue
				}
				if pc.Duration != ec.Duration {
					t.Fatalf("candidate %s@%d duration mismatch: %v vs %v", pc.Policy, pc.CPUs, pc.Duration, ec.Duration)
				}
			}
			if pruned.Simulated+pruned.Pruned != len(pruned.Candidates) {
				t.Fatalf("accounting broken: %d simulated + %d pruned != %d candidates",
					pruned.Simulated, pruned.Pruned, len(pruned.Candidates))
			}
			t.Logf("%s: winner %s@%d in %v; %d simulated, %d pruned",
				tc.name, pruned.Winner.Policy, pruned.Winner.CPUs, pruned.Winner.Duration,
				pruned.Simulated, pruned.Pruned)
		})
	}
}

// TestOptimizePrunesBoundedWorkload pins that pruning actually fires where
// it should: prodcons is serialization-bound (its 8-CPU run takes far
// longer than Work/8), so at small CPU counts Work/c already exceeds the
// 8-CPU incumbent and those candidates must be skipped without simulation.
func TestOptimizePrunesBoundedWorkload(t *testing.T) {
	prof, a := optimizeProfile(t, "prodcons", 0, 0.15)
	res, err := Optimize(context.Background(), prof, a, OptimizeOptions{Policies: []string{"ts"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Fatalf("expected pruning on a serialization-bound workload (work=%v):\n%+v",
			res.Work, res.Candidates)
	}
	for _, c := range res.Candidates {
		if c.Pruned && c.LowerBound <= res.Winner.Duration {
			t.Fatalf("candidate %s@%d pruned without proof: lb %v <= winner %v", c.Policy, c.CPUs, c.LowerBound, res.Winner.Duration)
		}
	}
}

// TestOptimizeWithoutAnalysis keeps the sweep usable with pruning off: a
// nil analysis simulates the full grid and still picks the same winner.
func TestOptimizeWithoutAnalysis(t *testing.T) {
	prof, a := optimizeProfile(t, "fft", 8, 0.2)
	with, err := Optimize(context.Background(), prof, a, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Optimize(context.Background(), prof, nil, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if without.Pruned != 0 {
		t.Fatalf("nil analysis pruned %d candidates", without.Pruned)
	}
	if with.Winner.Policy != without.Winner.Policy || with.Winner.CPUs != without.Winner.CPUs ||
		with.Winner.Duration != without.Winner.Duration {
		t.Fatalf("winner differs with pruning: %+v vs %+v", with.Winner, without.Winner)
	}
}

// TestOptimizeCancellation aborts the sweep between candidates.
func TestOptimizeCancellation(t *testing.T) {
	prof, a := optimizeProfile(t, "fft", 8, 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(ctx, prof, a, OptimizeOptions{}); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}
