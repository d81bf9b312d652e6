package core

import (
	"fmt"
	"testing"

	"vppb/internal/progen"
	"vppb/internal/recorder"
	"vppb/internal/sched"
	"vppb/internal/threadlib"
	"vppb/internal/vtime"
)

// Differential validation: generate random (but deterministic) structured
// multithreaded programs, record them on the monitored uniprocessor, and
// compare the Simulator's predictions against execution-driven reference
// runs of the same program across machine sizes. This is the strongest
// correctness check the reproduction has: any semantic divergence between
// the trace-driven replay and the live kernel shows up as a timing gap.

func TestDifferentialRandomPrograms(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	worst := 0.0
	for _, seed := range seeds {
		prog := progen.Program(seed)
		log, _, err := recorder.Record(prog, recorder.Options{Program: fmt.Sprintf("rand-%d", seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := log.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cpus := range []int{1, 2, 3, 8} {
			pred, err := Simulate(log, Machine{CPUs: cpus})
			if err != nil {
				t.Fatalf("seed %d cpus %d: %v", seed, cpus, err)
			}
			if err := pred.Timeline.Validate(); err != nil {
				t.Fatalf("seed %d cpus %d timeline: %v", seed, cpus, err)
			}
			ref := reference(t, prog, cpus, 0)
			gap := relGap(pred.Duration, ref)
			if gap > worst {
				worst = gap
			}
			// Trylock outcomes and barrier reordering are the method's
			// inherent approximations (paper section 6): a live run's
			// trylock may succeed where the recorded one failed, making
			// the reference execute different work than the trace
			// describes. These adversarial programs bound that error at
			// ~30%; real applications (Table 1) stay within 6%.
			if gap > 0.35 {
				t.Errorf("seed %d cpus %d: prediction %v vs reference %v (gap %.1f%%)",
					seed, cpus, pred.Duration, ref, 100*gap)
			}
			if cpus == 1 && gap > 0.02 {
				t.Errorf("seed %d: uniprocessor replay off by %.2f%% (%v vs %v)",
					seed, 100*gap, pred.Duration, ref)
			}
		}
	}
	t.Logf("worst prediction gap across %d random programs: %.1f%%", len(seeds), 100*worst)
}

func relGap(a, b vtime.Duration) float64 {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return 0
	}
	return d / float64(b)
}

// TestDifferentialPolicyIdentity is the fidelity-by-construction check the
// shared scheduler core makes possible: for EVERY registered policy, a
// program recorded under policy P and replayed by the Simulator under P on
// the same machine shape (1 CPU, 1 LWP) reproduces the recorded timeline
// EXACTLY — both engines drive their state machines through one
// sched.Core, so the schedules cannot diverge. Probe cost is zeroed so the
// recording has no intrusion to deduct; equality is then exact, not
// approximate.
func TestDifferentialPolicyIdentity(t *testing.T) {
	for _, policy := range sched.Names() {
		for _, seed := range []uint64{3, 21, 89} {
			prog := progen.Program(seed)
			costs := threadlib.DefaultCosts()
			costs.Probe = 0
			log, res, err := recorder.Record(prog, recorder.Options{
				Program: fmt.Sprintf("ident-%s-%d", policy, seed),
				Costs:   &costs,
				Policy:  policy,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			pred, err := Simulate(log, Machine{CPUs: 1, LWPs: 1, Policy: policy})
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			if pred.Duration != res.Duration {
				t.Errorf("%s seed %d: replay %v != recorded %v (diff %v) — the engines scheduled differently",
					policy, seed, pred.Duration, res.Duration, pred.Duration-res.Duration)
			}
		}
	}
}

// TestDifferentialPoliciesApproximate extends the multiprocessor
// differential check across the non-default policies: predictions under
// fifo and rr must track execution-driven reference runs configured with
// the same policy, within the same tolerance the ts policy is held to.
func TestDifferentialPoliciesApproximate(t *testing.T) {
	for _, policy := range []string{"fifo", "rr"} {
		for _, seed := range []uint64{5, 34} {
			prog := progen.Program(seed)
			log, _, err := recorder.Record(prog, recorder.Options{
				Program: fmt.Sprintf("rand-%s-%d", policy, seed),
				Policy:  policy,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			for _, cpus := range []int{2, 4} {
				pred, err := Simulate(log, Machine{CPUs: cpus, Policy: policy})
				if err != nil {
					t.Fatalf("%s seed %d cpus %d: %v", policy, seed, cpus, err)
				}
				ref := referencePolicy(t, prog, cpus, policy)
				if gap := relGap(pred.Duration, ref); gap > 0.35 {
					t.Errorf("%s seed %d cpus %d: prediction %v vs reference %v (gap %.1f%%)",
						policy, seed, cpus, pred.Duration, ref, 100*gap)
				}
			}
		}
	}
}

// referencePolicy is an unmonitored execution-driven run under the given
// scheduling policy, with the Simulator-invisible overheads zeroed so the
// comparison isolates scheduling behaviour.
func referencePolicy(t *testing.T, prog func(p *threadlib.Process) func(*threadlib.Thread), cpus int, policy string) vtime.Duration {
	t.Helper()
	costs := threadlib.DefaultCosts()
	costs.ContextSwitch = 0
	costs.Migration = 0
	p := threadlib.NewProcess(threadlib.Config{Program: "ref", CPUs: cpus, Policy: policy, Costs: &costs})
	res, err := p.Run(prog(p))
	if err != nil {
		t.Fatal(err)
	}
	return res.Duration
}

// TestDifferentialSpeedupMonotone checks a sanity property over random
// programs: predicted execution time never increases when CPUs are added
// (for these lock/semaphore/barrier programs with FIFO queueing).
func TestDifferentialSpeedupMonotone(t *testing.T) {
	for _, seed := range []uint64{7, 11, 19, 27} {
		prog := progen.Program(seed)
		log, _, err := recorder.Record(prog, recorder.Options{Program: "mono"})
		if err != nil {
			t.Fatal(err)
		}
		var prev vtime.Duration
		for i, cpus := range []int{1, 2, 4, 8} {
			res, err := Simulate(log, Machine{CPUs: cpus})
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && float64(res.Duration) > float64(prev)*1.02 {
				t.Errorf("seed %d: %d CPUs slower than fewer (%v > %v)", seed, cpus, res.Duration, prev)
			}
			prev = res.Duration
		}
	}
}
