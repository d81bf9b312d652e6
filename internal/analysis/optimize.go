package analysis

import (
	"context"
	"fmt"
	"sort"

	"vppb/internal/core"
	"vppb/internal/hb"
	"vppb/internal/sched"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// Optimize answers "what should I deploy on?" in one call: it ranks every
// (policy × CPU count) configuration of a grid by predicted execution
// time, and skips the configurations that provably cannot win.
//
// Each candidate is either pruned or simulated with core.SimulateProfile.
// The pruning bound is lb(c) = Work/c, the pigeonhole limit of c
// processors: the simulator executes every recorded CPU burst in full and
// only ever adds overhead (communication delay, queueing, slicing) on top.
// A candidate whose lower bound already exceeds the incumbent's simulated
// duration strictly cannot win and is never simulated. The happens-before
// critical path is not a bound on replay: the recording fixes one pairing
// of posts and waits, lock hand-offs and trylock outcomes, and a replay
// on another machine may re-pair them, so a chain built from the
// recording can be longer than the replay.
//
// Pruning cannot change the winner: candidates are visited in a fixed
// order (policies as given, CPU counts descending) and the winner is the
// first candidate with the minimum duration; a pruned candidate's true
// duration exceeds the incumbent's strictly, so it neither beats nor ties
// any earlier candidate. Tests check winner equality against the
// exhaustive sweep over generated programs.

// DefaultOptimizeCPUs is the CPU grid when OptimizeOptions.CPUCounts is
// empty — the paper's Table 1 processor counts.
var DefaultOptimizeCPUs = []int{1, 2, 4, 8}

// OptimizeOptions configures an Optimize sweep.
type OptimizeOptions struct {
	// CPUCounts is the CPU grid; empty means DefaultOptimizeCPUs. The list
	// is deduplicated and swept in descending order.
	CPUCounts []int
	// Policies is the scheduling-policy grid; empty means every registered
	// policy (sched.Names()).
	Policies []string
	// Exhaustive disables bound pruning: every candidate is simulated.
	// This is the baseline the optimize experiment measures the default
	// mode against.
	Exhaustive bool
	// MaxSimEvents bounds each candidate simulation (0 = unlimited); a
	// candidate exceeding it aborts the sweep with the budget error.
	MaxSimEvents int64
}

// Candidate is one configuration's outcome in an Optimize sweep.
type Candidate struct {
	Policy string `json:"policy"`
	CPUs   int    `json:"cpus"`
	// Duration is the predicted execution time; zero when Pruned.
	Duration vtime.Duration `json:"duration"`
	// LowerBound is lb(c) = Work/c, the proof a pruned candidate cannot
	// win (zero when no analysis was supplied).
	LowerBound vtime.Duration `json:"lower_bound"`
	Pruned     bool           `json:"pruned"`
	// Events is the simulation's total probe-event count; zero when
	// Pruned.
	Events int64 `json:"events"`
}

// OptimizeResult is the ranked outcome of an Optimize sweep.
type OptimizeResult struct {
	// Candidates lists every grid point in sweep order (policies as given,
	// CPU counts descending).
	Candidates []Candidate `json:"candidates"`
	// Winner is the best configuration: minimum predicted duration, ties
	// resolved by sweep order.
	Winner Candidate `json:"winner"`
	// Simulated and Pruned count the grid points that were simulated
	// versus proven hopeless by their lower bound.
	Simulated int `json:"simulated"`
	Pruned    int `json:"pruned"`
	// Work echoes the pruning input (zero when no analysis was supplied).
	Work vtime.Duration `json:"work"`
}

// lowerBoundAt is lb(c) = Work/c: no c-CPU machine finishes the program
// faster.
func lowerBoundAt(a *hb.Analysis, cpus int) vtime.Duration {
	if a == nil {
		return 0
	}
	return vtime.Duration(int64(a.Work) / int64(cpus))
}

// Optimize sweeps the (policy × CPU) grid over one behaviour profile.
// hbA supplies the pruning bound (typically hb.Analyze of the profile's
// log); nil disables pruning. The context is checked between candidates:
// cancellation aborts the sweep with ctx's error.
func Optimize(ctx context.Context, prof *trace.Profile, hbA *hb.Analysis, opts OptimizeOptions) (*OptimizeResult, error) {
	cpus := normalizeCPUs(opts.CPUCounts)
	if len(cpus) == 0 {
		return nil, fmt.Errorf("analysis: optimize needs at least one positive CPU count")
	}
	policies := opts.Policies
	if len(policies) == 0 {
		policies = sched.Names()
	}
	res := &OptimizeResult{Candidates: make([]Candidate, 0, len(cpus)*len(policies))}
	if hbA != nil {
		res.Work = hbA.Work
	}

	best := -1 // index of the best simulated candidate so far, in sweep order
	for _, policy := range policies {
		for _, c := range cpus {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cand := Candidate{Policy: policy, CPUs: c, LowerBound: lowerBoundAt(hbA, c)}
			if !opts.Exhaustive && best >= 0 && cand.LowerBound > res.Candidates[best].Duration {
				cand.Pruned = true
				res.Pruned++
			} else {
				r, err := core.SimulateProfile(prof, core.Machine{CPUs: c, Policy: policy, DiscardTimeline: true, MaxSimEvents: opts.MaxSimEvents})
				if err != nil {
					return nil, err
				}
				cand.Duration = r.Duration
				cand.Events = r.Events
				res.Simulated++
				if best < 0 || cand.Duration < res.Candidates[best].Duration {
					best = len(res.Candidates)
				}
			}
			res.Candidates = append(res.Candidates, cand)
		}
	}
	res.Winner = res.Candidates[best]
	return res, nil
}

// normalizeCPUs dedupes and sorts the grid descending, dropping
// non-positive entries.
func normalizeCPUs(in []int) []int {
	seen := make(map[int]bool, len(in))
	var out []int
	src := in
	if len(src) == 0 {
		src = DefaultOptimizeCPUs
	}
	for _, c := range src {
		if c > 0 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
