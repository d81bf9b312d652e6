package main

import (
	"runtime"
	"time"

	"vppb/internal/core"
	"vppb/internal/ingest"
	"vppb/internal/trace"
)

// layerMetrics derives the per-layer metrics of a traced run from its
// spans, the /metrics deltas of the nodes, an allocation probe, and the
// untraced run of the same sequence (for the tracing overhead).
func layerMetrics(p *plan, plain, tr *phase, logs []*spanLog) map[string]metric {
	type total struct {
		self          time.Duration
		events, bytes int64
		durations     []float64
	}
	totals := map[string]*total{}
	// Per timed operation: HTTP time and the daemon-path layer time.
	httpTime := map[int]time.Duration{}
	layerTime := map[int]time.Duration{}
	for _, l := range logs {
		self := l.selfTimes()
		for i, s := range l.spans {
			t := totals[s.Name]
			if t == nil {
				t = &total{}
				totals[s.Name] = t
			}
			t.self += self[i]
			t.events += s.Events
			t.bytes += s.Bytes
			t.durations = append(t.durations, float64(s.End-s.Start)/float64(time.Millisecond))
			if s.Op < 0 {
				continue
			}
			switch s.Name {
			case "op", "core.simulate_discard":
			case "http":
				httpTime[s.Op] += s.End - s.Start
			default:
				layerTime[s.Op] += self[i]
			}
		}
	}
	get := func(name string) *total {
		if t := totals[name]; t != nil {
			return t
		}
		return &total{}
	}
	perEvent := func(name string) float64 {
		t := get(name)
		if t.events == 0 {
			return 0
		}
		return float64(t.self.Nanoseconds()) / float64(t.events)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// serve.overhead: what an HTTP exchange costs beyond the layer calls
	// it stands for. The proxy hop is that overhead's excess on forwarded
	// operations over direct ones.
	var overhead, fwd, direct []float64
	for _, r := range tr.results {
		h, ok := httpTime[r.op.index]
		if !ok {
			continue
		}
		ms := float64(h-layerTime[r.op.index]) / float64(time.Millisecond)
		overhead = append(overhead, ms)
		if len(r.replies) > 0 && r.replies[0].peer != "" {
			fwd = append(fwd, ms)
		} else {
			direct = append(direct, ms)
		}
	}
	hop := 0.0
	if len(fwd) > 0 && len(direct) > 0 {
		hop = median(fwd) - median(direct)
	}

	requests := 0
	for _, r := range tr.results {
		requests += len(r.replies)
	}
	probe := allocProbe(p)
	c := tr.counters
	n := float64(len(tr.results))
	sim := get("core.simulate")
	svg := get("viz.render_svg")
	opt := get("analysis.optimize")
	m := map[string]metric{
		"ingest.decode_text.ns_per_event":     {perEvent("ingest.decode_text"), "ns/event"},
		"ingest.decode_text.allocs_per_event": {probe.decodeAllocs, "allocs/event"},
		"ingest.decode_binary.ns_per_event":   {perEvent("ingest.decode_binary"), "ns/event"},
		"trace.validate.ns_per_event":         {perEvent("trace.validate"), "ns/event"},
		"trace.repair.ns_per_event":           {perEvent("trace.repair"), "ns/event"},
		"trace.profile.ns_per_event":          {perEvent("trace.profile"), "ns/event"},
		"trace.profile.bytes_per_event":       {probe.profileBytes, "B/event"},
		"serve.digest.ns_per_byte":            {ratio(float64(get("serve.digest").self.Nanoseconds()), float64(get("serve.digest").bytes)), "ns/B"},
		"core.simulate.ns_per_event":          {perEvent("core.simulate"), "ns/event"},
		"core.simulate.allocs_per_event":      {probe.simAllocs, "allocs/event"},
		"core.simulate.events_per_op":         {ratio(float64(sim.events), n), "events"},
		"core.simulate_discard.ns_per_event":  {perEvent("core.simulate_discard"), "ns/event"},
		"serve.overhead.ms":                   {median(overhead), "ms"},
		"serve.cache.hit_ratio":               {ratio(c.hits, c.hits+c.misses), "ratio"},
		"serve.singleflight.shared_ratio":     {ratio(c.shared, n), "ratio"},
		"cluster.forwarded_ratio":             {ratio(c.forwarded, float64(requests)), "ratio"},
		"cluster.proxy_hop.ms":                {hop, "ms"},
		"hb.analyze.ns_per_event":             {perEvent("hb.analyze"), "ns/event"},
		"analysis.optimize.ms":                {median(opt.durations), "ms"},
		"analysis.optimize.simulated_ratio":   {ratio(c.optSimulated, c.optSimulated+c.optPrun), "ratio"},
		"viz.render_svg.ns_per_event":         {perEvent("viz.render_svg"), "ns/event"},
		"viz.render_svg.out_bytes_per_event":  {ratio(float64(svg.bytes), float64(svg.events)), "B/event"},
		"recorder.record.ns_per_event":        {ratio(float64(p.recordTime.Nanoseconds()), float64(p.recordEvents)), "ns/event"},
		"bench.tracing_overhead.pct":          {100 * (perOp(tr)/perOp(plain) - 1), "%"},
	}
	return m
}

// perOp is a phase's wall time per operation.
func perOp(ph *phase) float64 { return ph.elapsed.Seconds() / float64(len(ph.results)) }

// probeResult holds per-event allocation costs measured one call at a
// time while nothing else runs, so the process-wide counters are exact.
type probeResult struct {
	decodeAllocs, profileBytes, simAllocs float64
}

// allocProbe decodes, profiles and simulates every base once.
func allocProbe(p *plan) probeResult {
	var decAllocs, decEvents, profBytes, profEvents, simAllocs, simEvents float64
	var m0, m1 runtime.MemStats
	measure := func(f func()) (mallocs, bytes float64) {
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	for bi, b := range p.bases {
		raw := p.baseBody(bi).bytes()
		var log *trace.Log
		allocs, _ := measure(func() { log, _ = ingest.Decode(raw, ingest.Detect(raw), "") })
		if log == nil {
			continue
		}
		if !b.binary {
			decAllocs += allocs
			decEvents += float64(len(log.Events))
		}
		if log.Validate() != nil {
			if log, _, _ = trace.Repair(log); log == nil {
				continue
			}
		}
		var prof *trace.Profile
		_, bytes := measure(func() { prof, _ = trace.BuildProfile(log) })
		if prof == nil {
			continue
		}
		profBytes += bytes
		profEvents += float64(len(log.Events))
		var res *core.Result
		allocs, _ = measure(func() { res, _ = core.SimulateProfile(prof, core.Machine{CPUs: 4}) })
		if res != nil {
			simAllocs += allocs
			simEvents += float64(res.Events)
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return probeResult{div(decAllocs, decEvents), div(profBytes, profEvents), div(simAllocs, simEvents)}
}
