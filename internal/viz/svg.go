package viz

import (
	"math"
	"strconv"
	"unsafe"

	"vppb/internal/source"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// SVG rendering of the two graphs, matching the paper's figure 5 layout:
// the parallelism graph on top (running in green with the runnable surplus
// stacked in red) and the execution flow graph below it (one lane per
// thread: black segments running, grey segments runnable, gaps blocked,
// coloured glyphs per event family — semaphores red with up/down arrows,
// as in the paper).

// SVGOptions sizes the SVG rendering.
type SVGOptions struct {
	// Width is the drawing width in pixels; 0 means 1000, and a width
	// below MinSVGWidth is raised to it.
	Width int
	// LaneHeight is the per-thread lane height; 0 means 16.
	LaneHeight int
	// ParallelismHeight is the top graph's height; 0 means 120.
	ParallelismHeight int
	// Title is drawn above the graphs.
	Title string
	// Overlay highlights critical-path call records in the flow graph.
	Overlay CritOverlay
}

func (o SVGOptions) normalized() SVGOptions {
	if o.Width <= 0 {
		o.Width = 1000
	} else if o.Width < MinSVGWidth {
		o.Width = MinSVGWidth
	}
	if o.LaneHeight <= 0 {
		o.LaneHeight = 16
	}
	if o.ParallelismHeight <= 0 {
		o.ParallelismHeight = 120
	}
	return o
}

const (
	svgMarginLeft  = 90
	svgMarginRight = 10
	svgMarginTop   = 28
	svgGap         = 28
	svgAxis        = 22
)

// MinSVGWidth is the narrowest drawing that leaves a plot area: the
// margins plus one pixel.
const MinSVGWidth = svgMarginLeft + svgMarginRight + 1

// eventColor groups calls by primitive family, following the paper's
// colour coding (all semaphore operations red).
func eventColor(c trace.Call) string {
	switch c {
	case trace.CallSemaWait, trace.CallSemaTryWait, trace.CallSemaPost:
		return "#cc2222" // red: semaphores
	case trace.CallMutexLock, trace.CallMutexTryLock, trace.CallMutexUnlock:
		return "#2244cc" // blue: mutexes
	case trace.CallCondWait, trace.CallCondTimedWait, trace.CallCondSignal, trace.CallCondBroadcast:
		return "#996600" // ochre: condition variables
	case trace.CallRWRdLock, trace.CallRWWrLock, trace.CallRWUnlock:
		return "#227744" // green: readers/writer locks
	case trace.CallThrCreate, trace.CallThrExit, trace.CallThrJoin,
		trace.CallThrSuspend, trace.CallThrContinue:
		return "#552288" // purple: thread lifecycle
	case trace.CallIO:
		return "#008888" // teal: device I/O
	}
	return "#444444"
}

// RenderSVG draws both graphs of the view into one SVG document. Every
// element is appended into one byte slice sized up front.
func RenderSVG(v *View, opts SVGOptions) string {
	opts = opts.normalized()
	start, end := v.Window()
	span := end.Sub(start)
	if span <= 0 {
		span = 1
	}
	threads := v.VisibleThreads()
	pts := v.ParallelismInWindow()
	plotW := opts.Width - svgMarginLeft - svgMarginRight
	flowTop := svgMarginTop + opts.ParallelismHeight + svgGap
	height := flowTop + len(threads)*opts.LaneHeight + svgAxis + 10
	sx := xScale{start: start, plotW: float64(plotW), span: float64(span)}

	b := make([]byte, 0, svgSizeHint(pts, threads, start, end))
	b = append(b, `<svg xmlns="http://www.w3.org/2000/svg" width="`...)
	b = strconv.AppendInt(b, int64(opts.Width), 10)
	b = append(b, `" height="`...)
	b = strconv.AppendInt(b, int64(height), 10)
	b = append(b, `" font-family="monospace" font-size="11">`+"\n"+`<rect width="`...)
	b = strconv.AppendInt(b, int64(opts.Width), 10)
	b = append(b, `" height="`...)
	b = strconv.AppendInt(b, int64(height), 10)
	b = append(b, `" fill="white"/>`+"\n"...)
	if opts.Title != "" {
		b = appendText(b, svgMarginLeft, 16, `" font-size="13`, opts.Title)
	}

	b = appendParallelismSVG(b, pts, end, opts, sx, plotW)
	if !opts.Overlay.Empty() {
		b = appendText(b, svgMarginLeft, flowTop-6, `" fill="`+critColor, "critical path highlighted")
	}
	b = appendFlowSVG(b, threads, start, end, opts, sx, flowTop)
	b = appendAxisSVG(b, start, end, sx, flowTop+len(threads)*opts.LaneHeight+14)

	b = append(b, "</svg>\n"...)
	// b is never written again, so the string can share its bytes.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// xScale maps virtual time to the x coordinate of the plot area.
type xScale struct {
	start       vtime.Time
	plotW, span float64
}

func (s xScale) x(at vtime.Time) float64 {
	return svgMarginLeft + float64(at.Sub(s.start))*s.plotW/s.span
}

// svgSizeHint estimates the document's length from the elements the
// window shows, a little over the bytes each element takes, so that the
// buffer is allocated once.
func svgSizeHint(pts []trace.ParallelismPoint, threads []*trace.ThreadTimeline, start, end vtime.Time) int {
	n := 1024
	for _, p := range pts {
		if p.Running > 0 {
			n += 80
		}
		if p.Runnable > 0 {
			n += 80
		}
	}
	for _, th := range threads {
		n += 64
		for _, s := range th.Spans {
			if s.End > start && s.Start < end && (s.State == trace.StateRunning || s.State == trace.StateRunnable) {
				n += 84
			}
		}
		for _, pe := range th.Events {
			if pe.Start >= start && pe.Start <= end {
				n += 145 + len(source.Base(pe.Event.Loc.File))
			}
		}
	}
	return n
}

// appendF1 appends x with one decimal, the bytes %.1f prints. strconv
// formats a fixed precision through its arbitrary-precision decimal, so
// values in the range coordinates take are rounded here instead: x*10 is
// split into its rounded product and the product's exact error (math.FMA),
// which decides the rounding of the exact value, ties to even as strconv
// breaks them. Anything else goes to strconv.
func appendF1(b []byte, x float64) []byte {
	a := math.Abs(x)
	if !(a < 1e14) || (a != 0 && a < 1e-200) { // NaN, Inf, huge, or near underflow
		return strconv.AppendFloat(b, x, 'f', 1, 64)
	}
	t := a * 10
	r := math.FMA(a, 10, -t) // a*10 == t + r exactly
	n := math.Floor(t)
	switch d := (t - n - 0.5) + r; {
	case d > 0:
		n++
	case d == 0 && math.Mod(n, 2) == 1:
		n++
	}
	if math.Signbit(x) {
		b = append(b, '-')
	}
	tenths := uint64(n)
	b = strconv.AppendUint(b, tenths/10, 10)
	return append(b, '.', byte('0'+tenths%10))
}

// appendText appends a <text> element at x, y with an escaped body.
// attrs continues the y attribute's value, closing it with its own
// attributes.
func appendText(b []byte, x, y int, attrs, body string) []byte {
	b = append(b, `<text x="`...)
	b = strconv.AppendInt(b, int64(x), 10)
	b = append(b, `" y="`...)
	b = strconv.AppendInt(b, int64(y), 10)
	b = append(b, attrs...)
	b = append(b, `">`...)
	b = appendEscaped(b, body)
	return append(b, "</text>\n"...)
}

// appendRect appends a filled rectangle with fractional coordinates.
func appendRect(b []byte, x, y, w, h float64, fill string) []byte {
	b = append(b, `<rect x="`...)
	b = appendF1(b, x)
	b = append(b, `" y="`...)
	b = appendF1(b, y)
	b = append(b, `" width="`...)
	b = appendF1(b, w)
	b = append(b, `" height="`...)
	b = appendF1(b, h)
	b = append(b, `" fill="`...)
	b = append(b, fill...)
	return append(b, `"/>`+"\n"...)
}

// appendLine appends a horizontal line from x0 to x1 at y; style holds
// its stroke attributes.
func appendLine(b []byte, x0, x1, y float64, style string) []byte {
	b = append(b, `<line x1="`...)
	b = appendF1(b, x0)
	b = append(b, `" y1="`...)
	b = appendF1(b, y)
	b = append(b, `" x2="`...)
	b = appendF1(b, x1)
	b = append(b, `" y2="`...)
	b = appendF1(b, y)
	b = append(b, style...)
	return append(b, "/>\n"...)
}

func appendParallelismSVG(b []byte, pts []trace.ParallelismPoint, end vtime.Time, opts SVGOptions, sx xScale, plotW int) []byte {
	top := svgMarginTop
	h := opts.ParallelismHeight
	maxP := maxParallelism(pts)
	yOf := func(count int) float64 {
		return float64(top+h) - float64(count)*float64(h)/float64(maxP)
	}
	for i, p := range pts {
		to := end
		if i+1 < len(pts) {
			to = pts[i+1].Time
		}
		x0, x1 := sx.x(p.Time), sx.x(to)
		if x1 <= x0 {
			continue
		}
		if p.Running > 0 {
			b = appendRect(b, x0, yOf(p.Running), x1-x0, float64(top+h)-yOf(p.Running), "#33aa33")
		}
		if p.Runnable > 0 {
			b = appendRect(b, x0, yOf(p.Running+p.Runnable), x1-x0, yOf(p.Running)-yOf(p.Running+p.Runnable), "#cc3333")
		}
	}
	// Frame and scale.
	b = append(b, `<rect x="`...)
	b = strconv.AppendInt(b, svgMarginLeft, 10)
	b = append(b, `" y="`...)
	b = strconv.AppendInt(b, int64(top), 10)
	b = append(b, `" width="`...)
	b = strconv.AppendInt(b, int64(plotW), 10)
	b = append(b, `" height="`...)
	b = strconv.AppendInt(b, int64(h), 10)
	b = append(b, `" fill="none" stroke="#222"/>`+"\n"...)
	const anchorEnd = `" text-anchor="end`
	b = appendText(b, svgMarginLeft-6, top+10, anchorEnd, strconv.Itoa(maxP))
	b = appendText(b, svgMarginLeft-6, top+h, anchorEnd, "0")
	b = appendText(b, svgMarginLeft-6, top+h/2-6, anchorEnd+`" fill="#33aa33`, "run")
	return appendText(b, svgMarginLeft-6, top+h/2+8, anchorEnd+`" fill="#cc3333`, "ready")
}

// critColor is the critical-path highlight (an orange underlay beneath the
// thread lane, like a marker pen over the flow graph).
const critColor = "#ff8800"

func appendFlowSVG(b []byte, threads []*trace.ThreadTimeline, start, end vtime.Time, opts SVGOptions, sx xScale, flowTop int) []byte {
	var title []byte // one glyph's hover text, reused across glyphs
	for lane, th := range threads {
		yMid := float64(flowTop + lane*opts.LaneHeight + opts.LaneHeight/2)
		b = append(b, `<text x="`...)
		b = strconv.AppendInt(b, svgMarginLeft-6, 10)
		b = append(b, `" y="`...)
		b = appendF1(b, yMid+4)
		b = append(b, `" text-anchor="end">`...)
		b = appendEscaped(b, flowLabel(th))
		b = append(b, "</text>\n"...)
		if len(opts.Overlay[th.Info.ID]) > 0 {
			for i, pe := range th.Events {
				if !opts.Overlay.on(th.Info.ID, i) || pe.End <= start || pe.Start > end {
					continue
				}
				x0, x1 := sx.x(max(pe.Start, start)), sx.x(min(pe.End, end))
				if x1 < x0+2 {
					x1 = x0 + 2
				}
				b = appendLine(b, x0, x1, yMid, `" stroke="`+critColor+`" stroke-width="7" stroke-opacity="0.45"`)
			}
		}
		for _, s := range th.Spans {
			if s.End <= start || s.Start >= end {
				continue
			}
			switch s.State {
			case trace.StateRunning:
				b = appendLine(b, sx.x(max(s.Start, start)), sx.x(min(s.End, end)), yMid, `" stroke="#111" stroke-width="3"`)
			case trace.StateRunnable:
				b = appendLine(b, sx.x(max(s.Start, start)), sx.x(min(s.End, end)), yMid, `" stroke="#999" stroke-width="2"`)
			}
		}
		for i := range th.Events {
			pe := &th.Events[i]
			if pe.Start < start || pe.Start > end {
				continue
			}
			b, title = appendGlyphSVG(b, title, pe, sx.x(pe.Start), yMid, th.Info.ID, i)
		}
	}
	return b
}

// appendGlyphSVG draws one event glyph: semaphore waits point down,
// posts point up (the paper's arrows); everything else is a small marker.
// A <title> child gives hover details, standing in for the popup. The
// title is built in scratch, which is returned for reuse.
func appendGlyphSVG(b, scratch []byte, pe *trace.PlacedEvent, px, py float64, tid trace.ThreadID, idx int) ([]byte, []byte) {
	color := eventColor(pe.Event.Call)
	b = append(b, `<g id="ev-`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(idx), 10)
	b = append(b, `">`...)
	var closing string
	switch pe.Event.Call {
	case trace.CallSemaWait, trace.CallSemaTryWait, trace.CallCondWait, trace.CallCondTimedWait, trace.CallMutexLock, trace.CallRWRdLock, trace.CallRWWrLock:
		// Blocking acquisitions: downward arrow.
		b = append(b, `<path d="M `...)
		b = appendF1(b, px)
		b = append(b, ' ')
		b = appendF1(b, py+6)
		b = append(b, ` l -4 -7 l 8 0 z`...)
		closing = "</path></g>\n"
	case trace.CallSemaPost, trace.CallCondSignal, trace.CallCondBroadcast, trace.CallMutexUnlock, trace.CallRWUnlock:
		// Releases: upward arrow.
		b = append(b, `<path d="M `...)
		b = appendF1(b, px)
		b = append(b, ' ')
		b = appendF1(b, py-6)
		b = append(b, ` l -4 7 l 8 0 z`...)
		closing = "</path></g>\n"
	case trace.CallThrExit:
		b = append(b, `<rect x="`...)
		b = appendF1(b, px-3)
		b = append(b, `" y="`...)
		b = appendF1(b, py-3)
		b = append(b, `" width="6" height="6`...)
		closing = "</rect></g>\n"
	default:
		b = append(b, `<circle cx="`...)
		b = appendF1(b, px)
		b = append(b, `" cy="`...)
		b = appendF1(b, py)
		b = append(b, `" r="3`...)
		closing = "</circle></g>\n"
	}
	b = append(b, `" fill="`...)
	b = append(b, color...)
	b = append(b, `"><title>`...)

	t := append(scratch[:0], 'T')
	t = strconv.AppendInt(t, int64(tid), 10)
	t = append(t, ' ')
	t = append(t, pe.Event.Call.String()...)
	t = append(t, " @ "...)
	t = vtime.AppendSeconds(t, int64(pe.Start))
	t = append(t, " (cpu "...)
	t = strconv.AppendInt(t, int64(pe.CPU), 10)
	t = append(t, ") "...)
	t = pe.Event.Loc.AppendTo(t)
	b = appendEscaped(b, t)

	b = append(b, "</title>"...)
	return append(b, closing...), t
}

func appendAxisSVG(b []byte, start, end vtime.Time, sx xScale, y int) []byte {
	marks := 5
	for m := 0; m <= marks; m++ {
		at := start.Add(vtime.Duration(int64(end.Sub(start)) * int64(m) / int64(marks)))
		b = append(b, `<text x="`...)
		b = appendF1(b, sx.x(at))
		b = append(b, `" y="`...)
		b = strconv.AppendInt(b, int64(y), 10)
		b = append(b, `" text-anchor="middle">`...)
		b = vtime.AppendSeconds(b, int64(at))
		b = append(b, "</text>\n"...)
	}
	return b
}

// appendEscaped appends s with the four characters XML attributes and
// text must not carry raw replaced by their entities.
func appendEscaped[S string | []byte](b []byte, s S) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		last = i + 1
	}
	return append(b, s[last:]...)
}
