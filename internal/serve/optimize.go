package serve

import (
	"net/http"
	"strings"

	"vppb/internal/analysis"
	"vppb/internal/sched"
)

// POST /v1/optimize answers "what should I deploy on?" in one call: it
// sweeps every (policy × CPU count) configuration of a grid over the
// uploaded recording and returns the ranked outcome. The sweep skips
// configurations whose lower bound Work/c already loses to the incumbent,
// so a full grid typically costs a fraction of the naive
// per-configuration predictions.
//
//	POST /v1/optimize?cpus=1,2,4,8&policies=ts,rr,fifo
//	                  (?trace=<digest> ?strict=true ?exhaustive=true)
//
// ?exhaustive=true disables pruning — every candidate is simulated. The winner is identical by construction; the
// flag exists so clients (and the CI smoke gate) can verify that claim
// differentially.

// optimizeResponse is the deterministic JSON body of /v1/optimize.
type optimizeResponse struct {
	Trace         string `json:"trace"`
	Program       string `json:"program"`
	RecordedUS    int64  `json:"recorded_us"`
	Repaired      bool   `json:"repaired"`
	RepairSummary string `json:"repair_summary,omitempty"`
	// Durations inside are virtual microseconds, like predicted_us.
	*analysis.OptimizeResult
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, errf(http.StatusMethodNotAllowed, "POST a recorded log (or POST with ?trace=<digest>)"))
	}
	strict, herr := parseStrict(r)
	if herr != nil {
		return writeError(w, herr)
	}
	cpus, herr := parseCPUList(r)
	if herr != nil {
		return writeError(w, herr)
	}
	policies, herr := parsePolicyList(r)
	if herr != nil {
		return writeError(w, herr)
	}
	exhaustive, herr := parseBoolParam(r, "exhaustive")
	if herr != nil {
		return writeError(w, herr)
	}
	e, cached, herr := s.resolveEntry(w, r, strict)
	if herr != nil {
		return writeError(w, herr)
	}

	// The happens-before analysis supplies Work for the pruning bound; a
	// log the analysis cannot handle degrades to an unpruned sweep rather
	// than failing the request.
	hbA, _ := e.HB()

	// The remaining deadline becomes a per-candidate event budget, exactly
	// like /v1/predict.
	base, deadlineBudget := s.machineFor(r.Context(), "")
	opts := analysis.OptimizeOptions{
		CPUCounts:    cpus,
		Policies:     policies,
		Exhaustive:   exhaustive,
		MaxSimEvents: base.MaxSimEvents,
	}

	if s.breakers != nil && !s.breakers.allow(e.Digest) {
		return writeError(w, errShed(http.StatusServiceUnavailable,
			"circuit breaker open for trace %s after repeated simulation failures; retry later", e.Digest))
	}
	grid := int64(len(cpus) * len(policies))
	s.metrics.SimQueue().Add(grid)
	res, err := analysis.Optimize(r.Context(), e.Profile, hbA, opts)
	s.metrics.SimQueue().Add(-grid)
	if s.breakers != nil {
		s.breakers.record(e.Digest, err == nil)
	}
	if err != nil {
		return writeError(w, mapSimFailure(err, deadlineBudget))
	}
	s.metrics.OptimizeSimulated().Add(int64(res.Simulated))
	s.metrics.OptimizePruned().Add(int64(res.Pruned))

	entryHeaders(w, e, cached)
	return writeJSON(w, optimizeResponse{
		Trace:          e.Digest,
		Program:        e.Log.Header.Program,
		RecordedUS:     int64(e.Log.Duration()),
		Repaired:       e.Repaired,
		RepairSummary:  e.RepairSummary,
		OptimizeResult: res,
	})
}

// parsePolicyList parses ?policies=a,b,c; empty means every registered
// policy.
func parsePolicyList(r *http.Request) ([]string, *httpError) {
	spec := r.URL.Query().Get("policies")
	if spec == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if _, err := sched.New(name); err != nil {
			return nil, errf(http.StatusBadRequest, "policies: %v", err)
		}
		if name == "" {
			name = sched.Default
		}
		out = append(out, name)
	}
	return out, nil
}

// parseBoolParam parses an optional boolean query parameter.
func parseBoolParam(r *http.Request, name string) (bool, *httpError) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false, nil
	}
	switch v {
	case "1", "t", "true", "T", "TRUE", "True":
		return true, nil
	case "0", "f", "false", "F", "FALSE", "False":
		return false, nil
	}
	return false, errf(http.StatusBadRequest, "%s wants a boolean, got %q", name, v)
}
