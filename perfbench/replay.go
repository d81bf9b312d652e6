package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"

	"vppb/internal/analysis"
	"vppb/internal/core"
	"vppb/internal/hb"
	"vppb/internal/ingest"
	"vppb/internal/serve"
	"vppb/internal/trace"
	"vppb/internal/viz"
)

// entry is what the daemon derives from one upload, rebuilt in-process
// by the benchmark's own calls into the layers.
type entry struct {
	log      *trace.Log
	prof     *trace.Profile
	repaired bool
}

// ingestLayers runs the daemon's upload pipeline — digest, sniff and
// decode, validate, repair when invalid, profile — recording a span per
// layer call under parent.
func ingestLayers(raw []byte, tr *spanLog, opi, parent int) (*entry, error) {
	id := tr.begin("serve.digest", opi, parent)
	serve.Digest(raw)
	tr.end(id, 0, int64(len(raw)))

	name := "ingest.decode_text"
	if bytes.HasPrefix(raw, []byte("VPPBLOG1")) {
		name = "ingest.decode_binary"
	}
	id = tr.begin(name, opi, parent)
	log, err := ingest.Decode(raw, ingest.Detect(raw), "")
	if err != nil {
		return nil, err
	}
	events := int64(len(log.Events))
	tr.end(id, events, int64(len(raw)))

	e := &entry{}
	id = tr.begin("trace.validate", opi, parent)
	verr := log.Validate()
	tr.end(id, events, 0)
	if verr != nil {
		id = tr.begin("trace.repair", opi, parent)
		log, _, err = trace.Repair(log)
		if err != nil {
			return nil, err
		}
		tr.end(id, events, 0)
		e.repaired = true
	}

	id = tr.begin("trace.profile", opi, parent)
	e.prof, err = trace.BuildProfile(log)
	if err != nil {
		return nil, err
	}
	tr.end(id, int64(len(log.Events)), 0)
	e.log = log
	return e, nil
}

// predictMachines is the machine list of one /v1/predict: the
// uniprocessor baseline, then the requested sizes in order.
func predictMachines(policy, cpus string) ([]core.Machine, error) {
	base := core.Machine{Policy: policy}
	ms := []core.Machine{base.Uniprocessor()}
	for _, f := range strings.Split(cpus, ",") {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad CPU grid %q", cpus)
		}
		m := base
		m.CPUs = n
		ms = append(ms, m)
	}
	return ms, nil
}

// simulateLayers runs machines as the daemon does, then again with
// DiscardTimeline. The second span is off the daemon's path: it shows
// what timeline assembly costs on the same machines.
func simulateLayers(e *entry, machines []core.Machine, tr *spanLog, opi, parent int) ([]*core.Result, error) {
	id := tr.begin("core.simulate", opi, parent)
	res, err := core.SimulateManyCtx(context.Background(), e.prof, machines)
	if err != nil {
		return nil, err
	}
	tr.end(id, simEvents(res), 0)
	if tr != nil {
		discard := append([]core.Machine(nil), machines...)
		for i := range discard {
			discard[i].DiscardTimeline = true
		}
		id = tr.begin("core.simulate_discard", opi, parent)
		dres, err := core.SimulateManyCtx(context.Background(), e.prof, discard)
		if err != nil {
			return nil, err
		}
		tr.end(id, simEvents(dres), 0)
	}
	return res, nil
}

func simEvents(rs []*core.Result) int64 {
	var n int64
	for _, r := range rs {
		n += r.Events
	}
	return n
}

// replayer repeats, in-process, the layer calls the daemon makes for
// each operation of the traced run. known holds warm-repeat's working
// set, ingested once like the daemon's cache.
type replayer struct {
	plan  *plan
	known map[string]*entry
}

// prime ingests warm-repeat's working set under setup spans (negative
// operation indices), as the daemon did when set-up uploaded it.
func (r *replayer) prime(tr *spanLog) error {
	r.known = map[string]*entry{}
	for bi, d := range r.plan.digests {
		root := tr.begin("op", -1-bi, -1)
		e, err := ingestLayers(r.plan.baseBody(bi).bytes(), tr, -1-bi, root)
		if err != nil {
			return err
		}
		tr.end(root, 0, 0)
		r.known[d] = e
	}
	return nil
}

// replay makes the layer calls of operation o under the op's root span.
func (r *replayer) replay(o op, tr *spanLog, root int) error {
	switch {
	case o.cpus != "":
		ms, err := predictMachines(o.policy, o.cpus)
		if err != nil {
			return err
		}
		_, err = simulateLayers(r.known[o.trace], ms, tr, o.index, root)
		return err
	case o.session:
		e, err := ingestLayers(o.body.bytes(), tr, o.index, root)
		if err != nil {
			return err
		}
		id := tr.begin("hb.analyze", o.index, root)
		a, err := hb.Analyze(e.log)
		if err != nil {
			return err
		}
		tr.end(id, int64(len(e.log.Events)), 0)

		id = tr.begin("analysis.optimize", o.index, root)
		if _, err := analysis.Optimize(context.Background(), e.prof, a, analysis.OptimizeOptions{}); err != nil {
			return err
		}
		tr.end(id, int64(len(e.log.Events)), 0)

		res, err := simulateLayers(e, []core.Machine{{CPUs: 4}}, tr, o.index, root)
		if err != nil {
			return err
		}
		id = tr.begin("viz.render_svg", o.index, root)
		svg, err := renderSVG(res[0], e.log.Header.Program, 4)
		if err != nil {
			return err
		}
		tr.end(id, int64(len(e.log.Events)), int64(len(svg)))

		ms, _ := predictMachines("", coldGrid)
		_, err = simulateLayers(e, ms, tr, o.index, root)
		return err
	default:
		e, err := ingestLayers(o.body.bytes(), tr, o.index, root)
		if err != nil {
			return err
		}
		ms, _ := predictMachines("", coldGrid)
		_, err = simulateLayers(e, ms, tr, o.index, root)
		return err
	}
}

// renderSVG draws a prediction exactly as GET /v1/view.svg does.
func renderSVG(res *core.Result, program string, cpus int) (string, error) {
	v, err := viz.NewView(res.Timeline)
	if err != nil {
		return "", err
	}
	title := fmt.Sprintf("%s on %d simulated CPUs", program, cpus)
	return viz.RenderSVG(v, viz.SVGOptions{Title: title}), nil
}
