package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"vppb/internal/vtime"
)

// This file models "information describing the simulated execution" —
// artifact (g) in the paper's figure 1 — which both the trace-driven
// Simulator and the execution-driven reference kernel produce, and which
// the Visualizer consumes.

// ThreadState is the scheduling state of a thread over a span of time,
// with the same three-way distinction the execution flow graph draws: a
// solid line (running), a grey line (runnable but no LWP or CPU), or no
// line (blocked).
type ThreadState uint8

// Thread states.
const (
	StateBlocked ThreadState = iota
	StateRunnable
	StateRunning
)

func (s ThreadState) String() string {
	switch s {
	case StateBlocked:
		return "blocked"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	}
	return fmt.Sprintf("ThreadState(%d)", uint8(s))
}

// Span is a maximal interval during which a thread stays in one state.
// CPU is the processor the thread runs on during a running span, -1
// otherwise.
type Span struct {
	Start, End vtime.Time
	State      ThreadState
	CPU        int32
	LWP        int32
}

// Duration returns the span length.
func (s Span) Duration() vtime.Duration { return s.End.Sub(s.Start) }

// PlacedEvent is an event as it occurred in a simulated (or reference)
// execution: which CPU it happened on and when it started and ended. The
// Visualizer's popup shows exactly these fields.
type PlacedEvent struct {
	Event Event
	CPU   int32
	Start vtime.Time
	End   vtime.Time
}

// ThreadTimeline is the per-thread part of an execution description.
type ThreadTimeline struct {
	Info   ThreadInfo
	Spans  []Span
	Events []PlacedEvent
	// Created and Ended delimit the thread's lifetime.
	Created, Ended vtime.Time
}

// WorkTime is the time the thread actually ran.
func (t *ThreadTimeline) WorkTime() vtime.Duration {
	var d vtime.Duration
	for _, s := range t.Spans {
		if s.State == StateRunning {
			d += s.Duration()
		}
	}
	return d
}

// TotalTime is the thread's lifetime including blocked and runnable time.
func (t *ThreadTimeline) TotalTime() vtime.Duration { return t.Ended.Sub(t.Created) }

// StateAt reports the thread's state at time at.
func (t *ThreadTimeline) StateAt(at vtime.Time) (ThreadState, bool) {
	i := sort.Search(len(t.Spans), func(i int) bool { return t.Spans[i].End > at })
	if i == len(t.Spans) || t.Spans[i].Start > at {
		return StateBlocked, false
	}
	return t.Spans[i].State, true
}

// Timeline describes one complete (simulated or reference) execution.
type Timeline struct {
	Program  string
	CPUs     int
	LWPs     int
	Duration vtime.Duration
	Threads  []ThreadTimeline
	// Objects is the synchronization-object table, so analyses can name
	// the objects referenced by placed events.
	Objects []ObjectInfo
}

// ObjectName resolves an object ID to a printable name.
func (tl *Timeline) ObjectName(id ObjectID) string {
	for _, o := range tl.Objects {
		if o.ID == id && o.Name != "" {
			return o.Name
		}
	}
	return fmt.Sprintf("obj%d", id)
}

// Thread returns the timeline of thread id, or nil.
func (tl *Timeline) Thread(id ThreadID) *ThreadTimeline {
	for i := range tl.Threads {
		if tl.Threads[i].Info.ID == id {
			return &tl.Threads[i]
		}
	}
	return nil
}

// ParallelismPoint is one step of the parallelism graph: how many threads
// are running and how many are runnable-but-not-running from Time until
// the next point.
type ParallelismPoint struct {
	Time     vtime.Time
	Running  int
	Runnable int
}

// Parallelism builds the step function behind the paper's parallelism
// graph (green = running, red on top = runnable but not running).
func (tl *Timeline) Parallelism() []ParallelismPoint {
	// The deltas at one instant are summed before a point is emitted, so
	// their order within the instant does not matter.
	type delta struct {
		at              vtime.Time
		dRun, dRunnable int32
	}
	n := 0
	for _, th := range tl.Threads {
		for _, s := range th.Spans {
			if s.Start != s.End && (s.State == StateRunning || s.State == StateRunnable) {
				n += 2
			}
		}
	}
	deltas := make([]delta, 0, n)
	for _, th := range tl.Threads {
		for _, s := range th.Spans {
			if s.Start == s.End {
				continue
			}
			switch s.State {
			case StateRunning:
				deltas = append(deltas, delta{s.Start, 1, 0}, delta{s.End, -1, 0})
			case StateRunnable:
				deltas = append(deltas, delta{s.Start, 0, 1}, delta{s.End, 0, -1})
			}
		}
	}
	slices.SortFunc(deltas, func(a, b delta) int { return cmp.Compare(a.at, b.at) })
	var points []ParallelismPoint
	run, runnable := 0, 0
	for i := 0; i < len(deltas); {
		at := deltas[i].at
		for ; i < len(deltas) && deltas[i].at == at; i++ {
			run += int(deltas[i].dRun)
			runnable += int(deltas[i].dRunnable)
		}
		points = append(points, ParallelismPoint{at, run, runnable})
	}
	return points
}

// Validate checks execution invariants: spans ordered and non-overlapping
// per thread, running spans carrying a CPU, and no two threads running on
// the same CPU at the same time.
func (tl *Timeline) Validate() error {
	type cpuSpan struct {
		start, end vtime.Time
		thread     ThreadID
	}
	perCPU := make(map[int32][]cpuSpan)
	for _, th := range tl.Threads {
		var prevEnd vtime.Time
		for i, s := range th.Spans {
			if s.End < s.Start {
				return fmt.Errorf("trace: thread %d span %d: end %v before start %v", th.Info.ID, i, s.End, s.Start)
			}
			if s.Start < prevEnd {
				return fmt.Errorf("trace: thread %d span %d: overlaps previous (starts %v, prev ends %v)", th.Info.ID, i, s.Start, prevEnd)
			}
			prevEnd = s.End
			if s.State == StateRunning && s.CPU < 0 {
				return fmt.Errorf("trace: thread %d span %d: running without CPU", th.Info.ID, i)
			}
			if s.State == StateRunning && int(s.CPU) >= tl.CPUs {
				return fmt.Errorf("trace: thread %d span %d: CPU %d out of range (%d CPUs)", th.Info.ID, i, s.CPU, tl.CPUs)
			}
			if s.State == StateRunning {
				perCPU[s.CPU] = append(perCPU[s.CPU], cpuSpan{s.Start, s.End, th.Info.ID})
			}
		}
	}
	for cpu, spans := range perCPU {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				return fmt.Errorf("trace: CPU %d: threads %d and %d overlap at %v",
					cpu, spans[i-1].thread, spans[i].thread, spans[i].start)
			}
		}
	}
	return nil
}

// TimelineBuilder incrementally assembles per-thread timelines, coalescing
// adjacent spans that share a state and CPU. StartThread returns a dense
// handle; the *H methods take that handle and skip the per-call map
// lookup, which is what the Simulator's hot loop uses (one span or placed
// event per simulated state change adds up).
type TimelineBuilder struct {
	index map[ThreadID]int
	tls   []*ThreadTimeline
}

// NewTimelineBuilder returns an empty builder.
func NewTimelineBuilder() *TimelineBuilder {
	return &TimelineBuilder{index: make(map[ThreadID]int)}
}

// StartThread registers a thread and its creation time, returning the
// thread's dense handle for the *H fast paths. Registering a thread twice
// returns the original handle.
func (b *TimelineBuilder) StartThread(info ThreadInfo, at vtime.Time) int {
	if h, ok := b.index[info.ID]; ok {
		return h
	}
	h := len(b.tls)
	b.index[info.ID] = h
	b.tls = append(b.tls, &ThreadTimeline{Info: info, Created: at, Ended: at})
	return h
}

// Reserve preallocates a thread's span and event storage. events is an
// upper bound on AddEvent calls (the Simulator knows it exactly: one per
// call record plus the exit); spans is a hint.
func (b *TimelineBuilder) Reserve(h int, spans, events int) {
	th := b.tls[h]
	if cap(th.Spans) < spans {
		th.Spans = make([]Span, 0, spans)
	}
	if cap(th.Events) < events {
		th.Events = make([]PlacedEvent, 0, events)
	}
}

// AddSpan appends a state span for a thread. Zero-length spans are
// dropped; spans adjacent to an identical-state span merge.
func (b *TimelineBuilder) AddSpan(id ThreadID, s Span) {
	h, ok := b.index[id]
	if !ok {
		panic(fmt.Sprintf("trace: AddSpan for unregistered thread %d", id))
	}
	b.AddSpanH(h, s)
}

// AddSpanH is AddSpan by dense handle.
func (b *TimelineBuilder) AddSpanH(h int, s Span) {
	th := b.tls[h]
	if s.End <= s.Start {
		return
	}
	if n := len(th.Spans); n > 0 {
		last := &th.Spans[n-1]
		if last.End == s.Start && last.State == s.State && last.CPU == s.CPU && last.LWP == s.LWP {
			last.End = s.End
			if s.End > th.Ended {
				th.Ended = s.End
			}
			return
		}
	}
	th.Spans = append(th.Spans, s)
	if s.End > th.Ended {
		th.Ended = s.End
	}
}

// AddEvent appends a placed event for a thread.
func (b *TimelineBuilder) AddEvent(id ThreadID, pe PlacedEvent) {
	h, ok := b.index[id]
	if !ok {
		panic(fmt.Sprintf("trace: AddEvent for unregistered thread %d", id))
	}
	b.AddEventH(h, pe)
}

// AddEventH is AddEvent by dense handle.
func (b *TimelineBuilder) AddEventH(h int, pe PlacedEvent) {
	th := b.tls[h]
	th.Events = append(th.Events, pe)
}

// NextEventH appends a zeroed placed event for the thread and returns a
// pointer to the slot, valid until the thread's next append. The hot path
// fills the slot in place instead of copying a fully built PlacedEvent
// twice.
func (b *TimelineBuilder) NextEventH(h int) *PlacedEvent {
	th := b.tls[h]
	th.Events = append(th.Events, PlacedEvent{})
	return &th.Events[len(th.Events)-1]
}

// EndThread records a thread's end time.
func (b *TimelineBuilder) EndThread(id ThreadID, at vtime.Time) {
	if h, ok := b.index[id]; ok {
		b.EndThreadH(h, at)
	}
}

// EndThreadH is EndThread by dense handle.
func (b *TimelineBuilder) EndThreadH(h int, at vtime.Time) {
	if th := b.tls[h]; at > th.Ended {
		th.Ended = at
	}
}

// Build assembles the Timeline. Threads appear in registration order.
func (b *TimelineBuilder) Build(program string, cpus, lwps int, duration vtime.Duration) *Timeline {
	tl := &Timeline{Program: program, CPUs: cpus, LWPs: lwps, Duration: duration}
	tl.Threads = make([]ThreadTimeline, 0, len(b.tls))
	for _, th := range b.tls {
		tl.Threads = append(tl.Threads, *th)
	}
	return tl
}
