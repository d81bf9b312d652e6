// Package viz implements the VPPB Visualizer: the parallelism graph and
// the execution flow graph of the paper's section 3.3, rendered to ASCII
// and SVG, together with the interactive facilities the paper describes —
// zooming in fixed steps with the left edge pinned, selecting a time
// interval, compressing away inactive threads, inspecting an event
// ("popup window"), stepping to the previous/next event of a thread,
// finding the next similar event (same primitive or same object), and
// mapping an event back to its source line.
package viz

import (
	"fmt"
	"sort"

	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// ZoomStep is a magnification factor the paper's zoom offers (×1.5 or ×3).
type ZoomStep float64

// Zoom steps.
const (
	ZoomFine   ZoomStep = 1.5
	ZoomCoarse ZoomStep = 3.0
)

// View is a window onto an execution timeline: the state behind both
// graphs.
type View struct {
	tl *trace.Timeline
	// window
	start, end vtime.Time
	// explicit thread selection; nil means all threads.
	selected map[trace.ThreadID]bool
	// compressed hides threads with no activity inside the window.
	compressed bool
}

// NewView creates a view showing the whole execution and all threads.
func NewView(tl *trace.Timeline) (*View, error) {
	if tl == nil {
		return nil, fmt.Errorf("viz: nil timeline")
	}
	if err := tl.Validate(); err != nil {
		return nil, fmt.Errorf("viz: %w", err)
	}
	return &View{tl: tl, start: 0, end: vtime.Time(0).Add(tl.Duration)}, nil
}

// Timeline returns the underlying execution.
func (v *View) Timeline() *trace.Timeline { return v.tl }

// Window returns the visible time interval.
func (v *View) Window() (start, end vtime.Time) { return v.start, v.end }

// SetWindow shows exactly the interval [start, end] — the paper's "mark a
// time interval in the parallelism graph" facility. The interval is
// clamped to the execution.
func (v *View) SetWindow(start, end vtime.Time) error {
	if end <= start {
		return fmt.Errorf("viz: empty window [%v, %v]", start, end)
	}
	total := vtime.Time(0).Add(v.tl.Duration)
	if start < 0 {
		start = 0
	}
	if end > total {
		end = total
	}
	if end <= start {
		return fmt.Errorf("viz: window [%v, %v] outside the execution", start, end)
	}
	v.start, v.end = start, end
	return nil
}

// ZoomIn magnifies by the given step, keeping the left-most time fixed
// (paper section 3.3).
func (v *View) ZoomIn(step ZoomStep) {
	span := float64(v.end.Sub(v.start)) / float64(step)
	if span < 1 {
		span = 1
	}
	v.end = v.start.Add(vtime.Duration(span))
}

// ZoomOut demagnifies by the given step, keeping the left-most time fixed
// and clamping to the execution's end.
func (v *View) ZoomOut(step ZoomStep) {
	span := float64(v.end.Sub(v.start)) * float64(step)
	end := v.start.Add(vtime.Duration(span))
	if total := vtime.Time(0).Add(v.tl.Duration); end > total {
		end = total
	}
	v.end = end
}

// Reset shows the whole execution again.
func (v *View) Reset() {
	v.start = 0
	v.end = vtime.Time(0).Add(v.tl.Duration)
}

// SelectThreads restricts the flow graph to the given threads ("control
// which threads to be shown by hand"). An empty list restores all.
func (v *View) SelectThreads(ids ...trace.ThreadID) {
	if len(ids) == 0 {
		v.selected = nil
		return
	}
	v.selected = make(map[trace.ThreadID]bool, len(ids))
	for _, id := range ids {
		v.selected[id] = true
	}
}

// SetCompressed toggles automatic removal of threads with no activity in
// the visible interval ("irrelevant threads can be removed
// automatically").
func (v *View) SetCompressed(on bool) { v.compressed = on }

// Compressed reports whether compression is on.
func (v *View) Compressed() bool { return v.compressed }

// VisibleThreads returns the threads the flow graph shows, in timeline
// order, honouring the explicit selection and the compression switch.
func (v *View) VisibleThreads() []*trace.ThreadTimeline {
	var out []*trace.ThreadTimeline
	for i := range v.tl.Threads {
		th := &v.tl.Threads[i]
		if v.selected != nil && !v.selected[th.Info.ID] {
			continue
		}
		if v.compressed && !v.activeInWindow(th) {
			continue
		}
		out = append(out, th)
	}
	return out
}

// activeInWindow reports whether a thread runs or is runnable inside the
// current window.
func (v *View) activeInWindow(th *trace.ThreadTimeline) bool {
	for _, s := range th.Spans {
		if s.End <= v.start || s.Start >= v.end {
			continue
		}
		if s.State == trace.StateRunning || s.State == trace.StateRunnable {
			return true
		}
	}
	return false
}

// ParallelismInWindow returns the parallelism step function clipped to the
// view's window, always starting with a point at the window start.
func (v *View) ParallelismInWindow() []trace.ParallelismPoint {
	pts := v.tl.Parallelism()
	first := sort.Search(len(pts), func(i int) bool { return pts[i].Time > v.start })
	last := sort.Search(len(pts), func(i int) bool { return pts[i].Time >= v.end })
	if first == 0 {
		return append([]trace.ParallelismPoint{{Time: v.start}}, pts[:last]...)
	}
	// The last point at or before the window start becomes its first
	// point; pts is this call's own copy, so it can be overwritten.
	pts[first-1].Time = v.start
	return pts[first-1 : last]
}

// MaxParallelism returns the peak running+runnable count in the window,
// which sets the parallelism graph's height.
func (v *View) MaxParallelism() int { return maxParallelism(v.ParallelismInWindow()) }

func maxParallelism(pts []trace.ParallelismPoint) int {
	peak := 1
	for _, p := range pts {
		peak = max(peak, p.Running+p.Runnable)
	}
	return peak
}

// EventsInWindow returns the placed events of visible threads inside the
// window, ordered by start time.
func (v *View) EventsInWindow() []trace.PlacedEvent {
	var out []trace.PlacedEvent
	for _, th := range v.VisibleThreads() {
		for _, pe := range th.Events {
			if pe.End < v.start || pe.Start > v.end {
				continue
			}
			out = append(out, pe)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Event.Seq < out[j].Event.Seq
	})
	return out
}
