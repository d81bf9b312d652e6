package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"vppb/internal/analysis"
	"vppb/internal/core"
	"vppb/internal/hb"
	"vppb/internal/metrics"
	"vppb/internal/sched"
)

// checker compares stored responses with references computed
// in-process after the timed phase, so checking costs no timed CPU.
// References are built once per base and per query key.
type checker struct {
	plan  *plan
	refs  map[int]*reference
	preds map[string][]predictionJSON // base|policy|cpus
}

type reference struct {
	e         *entry
	hb        *hb.Analysis
	bounds    []byte // JSON bodies as the daemon writes them, base-named
	lockorder []byte
	svgPre    []byte // the SVG split around its title's program name
	svgPost   []byte
	winner    *analysis.Candidate
}

func newChecker(p *plan) *checker {
	return &checker{plan: p, refs: map[int]*reference{}, preds: map[string][]predictionJSON{}}
}

func (c *checker) ref(bi int) (*reference, error) {
	if r, ok := c.refs[bi]; ok {
		return r, nil
	}
	e, err := ingestLayers(c.plan.baseBody(bi).bytes(), nil, 0, -1)
	if err != nil {
		return nil, fmt.Errorf("reference ingest of base %d: %w", bi, err)
	}
	r := &reference{e: e}
	c.refs[bi] = r
	return r, nil
}

// sessionRef adds what only sessions check: hb reports, the exhaustive
// optimize winner and the rendered SVG.
func (c *checker) sessionRef(bi int) (*reference, error) {
	r, err := c.ref(bi)
	if err != nil || r.hb != nil {
		return r, err
	}
	if r.hb, err = hb.Analyze(r.e.log); err != nil {
		return nil, err
	}
	r.bounds = indentJSON(r.hb.JSONBounds(10))
	r.lockorder = indentJSON(r.hb.JSONLockOrder())
	opt, err := analysis.Optimize(context.Background(), r.e.prof, nil, analysis.OptimizeOptions{Exhaustive: true})
	if err != nil {
		return nil, err
	}
	r.winner = &opt.Winner
	res, err := core.SimulateProfile(r.e.prof, core.Machine{CPUs: 4})
	if err != nil {
		return nil, err
	}
	program := c.plan.bases[bi].program
	svg, err := renderSVG(res, program, 4)
	if err != nil {
		return nil, err
	}
	i := bytes.Index([]byte(svg), []byte(program+" on 4 simulated CPUs"))
	if i < 0 {
		return nil, fmt.Errorf("reference SVG of base %d has no title", bi)
	}
	r.svgPre, r.svgPost = []byte(svg[:i]), []byte(svg[i+len(program):])
	return r, nil
}

func indentJSON(v any) []byte {
	data, _ := json.MarshalIndent(v, "", "  ")
	return append(data, '\n')
}

// predictionJSON mirrors one element of /v1/predict's "predictions".
type predictionJSON struct {
	CPUs        int      `json:"cpus"`
	PredictedUS int64    `json:"predicted_us"`
	Speedup     *float64 `json:"speedup"`
	Events      int64    `json:"events"`
}

type predictJSON struct {
	Trace       string           `json:"trace"`
	Program     string           `json:"program"`
	Policy      string           `json:"policy"`
	Repaired    bool             `json:"repaired"`
	Predictions []predictionJSON `json:"predictions"`
}

// expectedPredictions simulates the reference profile on the request's
// machines with core.SimulateProfile, one machine at a time.
func (c *checker) expectedPredictions(bi int, policy, cpus string) ([]predictionJSON, error) {
	key := fmt.Sprintf("%d|%s|%s", bi, policy, cpus)
	if p, ok := c.preds[key]; ok {
		return p, nil
	}
	r, err := c.ref(bi)
	if err != nil {
		return nil, err
	}
	ms, err := predictMachines(policy, cpus)
	if err != nil {
		return nil, err
	}
	var uni *core.Result
	var out []predictionJSON
	for i, m := range ms {
		res, err := core.SimulateProfile(r.e.prof, m)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			uni = res
			continue
		}
		p := predictionJSON{CPUs: m.CPUs, PredictedUS: int64(res.Duration), Events: res.Events}
		if s := metrics.Speedup(uni.Duration, res.Duration); !math.IsNaN(s) && !math.IsInf(s, 0) {
			p.Speedup = &s
		}
		out = append(out, p)
	}
	c.preds[key] = out
	return out, nil
}

// checkPredict verifies one /v1/predict body.
func (c *checker) checkPredict(body []byte, bi int, digest, program, policy, cpus string) error {
	var got predictJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	want, err := c.expectedPredictions(bi, policy, cpus)
	if err != nil {
		return err
	}
	resolved := policy
	if resolved == "" {
		resolved = sched.Default
	}
	b := c.plan.bases[bi]
	switch {
	case got.Trace != digest:
		return fmt.Errorf("predict: trace %s, want %s", got.Trace, digest)
	case got.Program != program:
		return fmt.Errorf("predict: program %q, want %q", got.Program, program)
	case got.Policy != resolved:
		return fmt.Errorf("predict: policy %q, want %q", got.Policy, resolved)
	case got.Repaired != b.trunc:
		return fmt.Errorf("predict: repaired=%v for a body truncated=%v", got.Repaired, b.trunc)
	case len(got.Predictions) != len(want):
		return fmt.Errorf("predict: %d predictions, want %d", len(got.Predictions), len(want))
	}
	for i, w := range want {
		g := got.Predictions[i]
		if g.CPUs != w.CPUs || g.PredictedUS != w.PredictedUS || g.Events != w.Events || !sameSpeedup(g.Speedup, w.Speedup) {
			return fmt.Errorf("predict %s@%d: got %+v, want %+v (in-process core.SimulateProfile)", resolved, w.CPUs, g, w)
		}
	}
	return nil
}

func sameSpeedup(a, b *float64) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return *a == *b
}

// check verifies one completed operation; nil means it succeeded.
func (c *checker) check(r opResult) error {
	if r.err != nil {
		return r.err
	}
	o := r.op
	switch {
	case o.cpus != "":
		return c.checkPredict(r.replies[0].body, o.body.base, o.trace, o.body.tag, o.policy, o.cpus)
	case o.session:
		return c.checkSession(r)
	default:
		return c.checkPredict(r.replies[0].body, o.body.base, o.body.digest(), o.body.tag, "", coldGrid)
	}
}

// checkSession verifies every response of one analysis session.
func (c *checker) checkSession(r opResult) error {
	o := r.op
	bi := o.body.base
	ref, err := c.sessionRef(bi)
	if err != nil {
		return err
	}
	digest := o.body.digest()
	base := c.plan.bases[bi].program
	rename := func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"program": "`+base+`"`), []byte(`"program": "`+o.body.tag+`"`), 1)
	}
	bounds, opt, lock, svg, pred := r.replies[0], r.replies[1], r.replies[2], r.replies[3], r.replies[4]
	if bounds.digest != digest {
		return fmt.Errorf("bounds: digest %s, want %s", bounds.digest, digest)
	}
	if !bytes.Equal(bounds.body, rename(ref.bounds)) {
		return fmt.Errorf("bounds: body differs from in-process hb report")
	}
	if !bytes.Equal(lock.body, rename(ref.lockorder)) {
		return fmt.Errorf("lockorder: body differs from in-process hb report")
	}
	var got struct {
		Trace    string             `json:"trace"`
		Repaired bool               `json:"repaired"`
		Winner   analysis.Candidate `json:"winner"`
	}
	if err := json.Unmarshal(opt.body, &got); err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	w := ref.winner
	if got.Trace != digest || got.Repaired != c.plan.bases[bi].trunc {
		return fmt.Errorf("optimize: trace %s repaired=%v, want %s repaired=%v", got.Trace, got.Repaired, digest, c.plan.bases[bi].trunc)
	}
	if got.Winner.Policy != w.Policy || got.Winner.CPUs != w.CPUs || got.Winner.Duration != w.Duration {
		return fmt.Errorf("optimize: winner %s@%d %v, exhaustive sweep says %s@%d %v",
			got.Winner.Policy, got.Winner.CPUs, got.Winner.Duration, w.Policy, w.CPUs, w.Duration)
	}
	crc := crc32.Update(crc32.ChecksumIEEE(ref.svgPre), crc32.IEEETable, []byte(o.body.tag))
	crc = crc32.Update(crc, crc32.IEEETable, ref.svgPost)
	if n := int64(len(ref.svgPre) + len(o.body.tag) + len(ref.svgPost)); svg.n != n || svg.crc != crc {
		return fmt.Errorf("view.svg: %d bytes crc %08x, in-process render gives %d bytes crc %08x", svg.n, svg.crc, n, crc)
	}
	return c.checkPredict(pred.body, bi, digest, o.body.tag, "", coldGrid)
}
