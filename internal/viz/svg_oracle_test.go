package viz

import (
	"fmt"
	"sort"
	"strings"

	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// oracleRenderSVG is the fmt-based renderer RenderSVG replaced. It stays
// as the byte-for-byte reference the append renderer is tested against.
func oracleRenderSVG(v *View, opts SVGOptions) string {
	opts = opts.normalized()
	start, end := v.Window()
	span := end.Sub(start)
	if span <= 0 {
		span = 1
	}
	threads := v.VisibleThreads()
	plotW := opts.Width - svgMarginLeft - 10
	flowTop := svgMarginTop + opts.ParallelismHeight + svgGap
	height := flowTop + len(threads)*opts.LaneHeight + svgAxis + 10

	x := func(at vtime.Time) float64 {
		return svgMarginLeft + float64(at.Sub(start))*float64(plotW)/float64(span)
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n",
		opts.Width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", opts.Width, height)
	if opts.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="16" font-size="13">%s</text>`+"\n", svgMarginLeft, oracleEscape(opts.Title))
	}

	oracleParallelismSVG(&b, v, opts, x, plotW)
	if !opts.Overlay.Empty() {
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="%s">critical path highlighted</text>`+"\n",
			svgMarginLeft, flowTop-6, critColor)
	}
	oracleFlowSVG(&b, v, threads, opts, x, flowTop)
	oracleAxisSVG(&b, start, end, x, flowTop+len(threads)*opts.LaneHeight+14)

	b.WriteString("</svg>\n")
	return b.String()
}

func oracleParallelismSVG(b *strings.Builder, v *View, opts SVGOptions, x func(vtime.Time) float64, plotW int) {
	top := svgMarginTop
	h := opts.ParallelismHeight
	pts := oracleParallelismInWindow(v)
	maxP := 1
	for _, p := range pts {
		if t := p.Running + p.Runnable; t > maxP {
			maxP = t
		}
	}
	yOf := func(count int) float64 {
		return float64(top+h) - float64(count)*float64(h)/float64(maxP)
	}
	_, end := v.Window()
	for i, p := range pts {
		to := end
		if i+1 < len(pts) {
			to = pts[i+1].Time
		}
		x0, x1 := x(p.Time), x(to)
		if x1 <= x0 {
			continue
		}
		if p.Running > 0 {
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#33aa33"/>`+"\n",
				x0, yOf(p.Running), x1-x0, float64(top+h)-yOf(p.Running))
		}
		if p.Runnable > 0 {
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#cc3333"/>`+"\n",
				x0, yOf(p.Running+p.Runnable), x1-x0, yOf(p.Running)-yOf(p.Running+p.Runnable))
		}
	}
	// Frame and scale.
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#222"/>`+"\n",
		svgMarginLeft, top, plotW, h)
	fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="end">%d</text>`+"\n", svgMarginLeft-6, top+10, maxP)
	fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="end">0</text>`+"\n", svgMarginLeft-6, top+h)
	fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="end" fill="#33aa33">run</text>`+"\n", svgMarginLeft-6, top+h/2-6)
	fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="end" fill="#cc3333">ready</text>`+"\n", svgMarginLeft-6, top+h/2+8)
}

func oracleFlowSVG(b *strings.Builder, v *View, threads []*trace.ThreadTimeline, opts SVGOptions, x func(vtime.Time) float64, flowTop int) {
	start, end := v.Window()
	for lane, th := range threads {
		yMid := float64(flowTop + lane*opts.LaneHeight + opts.LaneHeight/2)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`+"\n",
			svgMarginLeft-6, yMid+4, oracleEscape(flowLabel(th)))
		for i, pe := range th.Events {
			if !opts.Overlay.on(th.Info.ID, i) || pe.End <= start || pe.Start > end {
				continue
			}
			from, to := pe.Start, pe.End
			if from < start {
				from = start
			}
			if to > end {
				to = end
			}
			x0, x1 := x(from), x(to)
			if x1 < x0+2 {
				x1 = x0 + 2
			}
			fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="7" stroke-opacity="0.45"/>`+"\n",
				x0, yMid, x1, yMid, critColor)
		}
		for _, s := range th.Spans {
			if s.End <= start || s.Start >= end {
				continue
			}
			from, to := s.Start, s.End
			if from < start {
				from = start
			}
			if to > end {
				to = end
			}
			switch s.State {
			case trace.StateRunning:
				fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#111" stroke-width="3"/>`+"\n",
					x(from), yMid, x(to), yMid)
			case trace.StateRunnable:
				fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#999" stroke-width="2"/>`+"\n",
					x(from), yMid, x(to), yMid)
			}
		}
		for i, pe := range th.Events {
			if pe.Start < start || pe.Start > end {
				continue
			}
			oracleGlyphSVG(b, pe, x(pe.Start), yMid, th.Info.ID, i)
		}
	}
}

// oracleGlyphSVG draws one event glyph: semaphore waits point down,
// posts point up (the paper's arrows); everything else is a small marker.
// A <title> child gives hover details, standing in for the popup.
func oracleGlyphSVG(b *strings.Builder, pe trace.PlacedEvent, px, py float64, tid trace.ThreadID, idx int) {
	color := eventColor(pe.Event.Call)
	title := fmt.Sprintf("T%d %s @ %s (cpu %d) %s", tid, pe.Event.Call, pe.Start, pe.CPU, pe.Event.Loc)
	fmt.Fprintf(b, `<g id="ev-%d-%d">`, tid, idx)
	switch pe.Event.Call {
	case trace.CallSemaWait, trace.CallSemaTryWait, trace.CallCondWait, trace.CallCondTimedWait, trace.CallMutexLock, trace.CallRWRdLock, trace.CallRWWrLock:
		// Blocking acquisitions: downward arrow.
		fmt.Fprintf(b, `<path d="M %.1f %.1f l -4 -7 l 8 0 z" fill="%s">`, px, py+6, color)
	case trace.CallSemaPost, trace.CallCondSignal, trace.CallCondBroadcast, trace.CallMutexUnlock, trace.CallRWUnlock:
		// Releases: upward arrow.
		fmt.Fprintf(b, `<path d="M %.1f %.1f l -4 7 l 8 0 z" fill="%s">`, px, py-6, color)
	case trace.CallThrExit:
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="6" height="6" fill="%s">`, px-3, py-3, color)
	default:
		fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s">`, px, py, color)
	}
	fmt.Fprintf(b, `<title>%s</title>`, oracleEscape(title))
	switch pe.Event.Call {
	case trace.CallThrExit:
		b.WriteString("</rect></g>\n")
	case trace.CallSemaWait, trace.CallSemaTryWait, trace.CallCondWait, trace.CallCondTimedWait, trace.CallMutexLock, trace.CallRWRdLock, trace.CallRWWrLock,
		trace.CallSemaPost, trace.CallCondSignal, trace.CallCondBroadcast, trace.CallMutexUnlock, trace.CallRWUnlock:
		b.WriteString("</path></g>\n")
	default:
		b.WriteString("</circle></g>\n")
	}
}

func oracleAxisSVG(b *strings.Builder, start, end vtime.Time, x func(vtime.Time) float64, y int) {
	marks := 5
	for m := 0; m <= marks; m++ {
		at := start.Add(vtime.Duration(int64(end.Sub(start)) * int64(m) / int64(marks)))
		fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`+"\n", x(at), y, at)
	}
}

func oracleEscape(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace(s)
}

// oracleParallelismInWindow is View.ParallelismInWindow over
// Timeline.Parallelism as they were when the oracle renderer was current.
func oracleParallelismInWindow(v *View) []trace.ParallelismPoint {
	type delta struct {
		at              vtime.Time
		dRun, dRunnable int
		seq             int
	}
	var deltas []delta
	seq := 0
	for _, th := range v.tl.Threads {
		for _, s := range th.Spans {
			if s.Start == s.End {
				continue
			}
			switch s.State {
			case trace.StateRunning:
				deltas = append(deltas, delta{s.Start, 1, 0, seq}, delta{s.End, -1, 0, seq + 1})
			case trace.StateRunnable:
				deltas = append(deltas, delta{s.Start, 0, 1, seq}, delta{s.End, 0, -1, seq + 1})
			}
			seq += 2
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].at != deltas[j].at {
			return deltas[i].at < deltas[j].at
		}
		return deltas[i].seq < deltas[j].seq
	})
	var pts []trace.ParallelismPoint
	run, runnable := 0, 0
	i := 0
	for i < len(deltas) {
		at := deltas[i].at
		for i < len(deltas) && deltas[i].at == at {
			run += deltas[i].dRun
			runnable += deltas[i].dRunnable
			i++
		}
		if n := len(pts); n > 0 && pts[n-1].Time == at {
			pts[n-1].Running = run
			pts[n-1].Runnable = runnable
		} else {
			pts = append(pts, trace.ParallelismPoint{Time: at, Running: run, Runnable: runnable})
		}
	}

	var out []trace.ParallelismPoint
	cur := trace.ParallelismPoint{Time: v.start}
	for _, p := range pts {
		if p.Time <= v.start {
			cur.Running, cur.Runnable = p.Running, p.Runnable
			continue
		}
		if p.Time >= v.end {
			break
		}
		if len(out) == 0 {
			out = append(out, cur)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		out = append(out, cur)
	}
	return out
}
