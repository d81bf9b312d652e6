package trace

import (
	"fmt"
	"sort"

	"vppb/internal/vtime"
)

// Header carries recording-wide metadata.
type Header struct {
	// Program names the recorded workload.
	Program string
	// CPUs and LWPs describe the machine the recording ran on. VPPB
	// recordings are made on a uni-processor with a single LWP.
	CPUs int
	LWPs int
	// ProbeCost is the CPU time each probe firing added to the monitored
	// execution. The Simulator deducts it so that predictions describe
	// the unmonitored program.
	ProbeCost vtime.Duration
	// Start and End delimit the recording in virtual time.
	Start, End vtime.Time
}

// Log is a full recording: header, thread and object tables, and the
// globally ordered event list.
type Log struct {
	Header  Header
	Threads []ThreadInfo
	Objects []ObjectInfo
	Events  []Event
}

// Duration returns the recorded execution time.
func (l *Log) Duration() vtime.Duration {
	return l.Header.End.Sub(l.Header.Start)
}

// Clone returns a deep copy of the log. Mutating the copy (fault
// injection, repair) leaves the original untouched.
func (l *Log) Clone() *Log {
	return &Log{
		Header:  l.Header,
		Threads: append([]ThreadInfo(nil), l.Threads...),
		Objects: append([]ObjectInfo(nil), l.Objects...),
		Events:  append([]Event(nil), l.Events...),
	}
}

// Thread returns the ThreadInfo for id, or nil if unknown.
func (l *Log) Thread(id ThreadID) *ThreadInfo {
	for i := range l.Threads {
		if l.Threads[i].ID == id {
			return &l.Threads[i]
		}
	}
	return nil
}

// Object returns the ObjectInfo for id, or nil if unknown.
func (l *Log) Object(id ObjectID) *ObjectInfo {
	for i := range l.Objects {
		if l.Objects[i].ID == id {
			return &l.Objects[i]
		}
	}
	return nil
}

// ObjectName returns a printable name for an object ID.
func (l *Log) ObjectName(id ObjectID) string {
	if o := l.Object(id); o != nil && o.Name != "" {
		return o.Name
	}
	return fmt.Sprintf("obj%d", id)
}

// ThreadName returns a printable name for a thread ID, "T<id>" if the
// thread has no recorded name.
func (l *Log) ThreadName(id ThreadID) string {
	if t := l.Thread(id); t != nil && t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("T%d", id)
}

// SortEvents restores the canonical global order (time, then recorded
// sequence) after any external manipulation.
func (l *Log) SortEvents() {
	sort.SliceStable(l.Events, func(i, j int) bool {
		if l.Events[i].Time != l.Events[j].Time {
			return l.Events[i].Time < l.Events[j].Time
		}
		return l.Events[i].Seq < l.Events[j].Seq
	})
}

// PerThread splits the global event list into one chronological list per
// thread — the Simulator's first step (paper figure 4). Collection markers
// (start_collect / end_collect) stay with the thread that generated them.
// The returned map has no defined iteration order; callers that emit
// per-thread output must walk it through ThreadIDs.
func (l *Log) PerThread() map[ThreadID][]Event {
	m := make(map[ThreadID][]Event)
	for _, ev := range l.Events {
		m[ev.Thread] = append(m[ev.Thread], ev)
	}
	return m
}

// ThreadIDs returns all thread IDs appearing in the log, ascending. Both
// sources count: the thread table and the event list. A thread that was
// registered but recorded zero events (it was created and exited between
// probes, or the log was truncated) still gets an ID, so visualization and
// analysis lanes do not silently disappear.
func (l *Log) ThreadIDs() []ThreadID {
	seen := make(map[ThreadID]bool, len(l.Threads))
	ids := make([]ThreadID, 0, len(l.Threads))
	for i := range l.Threads {
		if id := l.Threads[i].ID; !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, ev := range l.Events {
		if !seen[ev.Thread] {
			seen[ev.Thread] = true
			ids = append(ids, ev.Thread)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ValidationError is a structural violation of a recording, as reported
// by Validate. Its message is the whole diagnosis; the type lets callers
// such as the prediction daemon tell an invalid log, which Repair may
// recover, from other failures.
type ValidationError struct {
	// Index is the position of the offending event, or -1 for a
	// log-level violation.
	Index int
	msg   string
}

func (e *ValidationError) Error() string { return e.msg }

func invalid(i int, format string, args ...any) *ValidationError {
	return &ValidationError{Index: i, msg: fmt.Sprintf(format, args...)}
}

// Validate checks structural invariants of a recording: monotone
// timestamps, events within the header's time range, known calls, matched
// Before/After pairing per thread for blocking calls, and thread/object
// references resolvable through the tables. It returns the first violation
// found, as a *ValidationError.
func (l *Log) Validate() error {
	if err := l.validate(); err != nil {
		return err
	}
	return nil
}

// validate is Validate with the concrete error type, which Repair uses to
// name unrecoverable records.
func (l *Log) validate() *ValidationError {
	var prev vtime.Time
	prevSeq := int64(-1)
	open := make(map[ThreadID]Call)
	for i, ev := range l.Events {
		if ev.Time < prev {
			return invalid(i, "trace: event %d: time %v before previous %v", i, ev.Time, prev)
		}
		if ev.Time == prev && ev.Seq <= prevSeq && i > 0 {
			return invalid(i, "trace: event %d: sequence not increasing at equal times", i)
		}
		prev, prevSeq = ev.Time, ev.Seq
		if ev.Time < l.Header.Start || ev.Time > l.Header.End {
			return invalid(i, "trace: event %d: time %v outside [%v, %v]", i, ev.Time, l.Header.Start, l.Header.End)
		}
		if ev.Call == CallNone || ev.Call >= numCalls {
			return invalid(i, "trace: event %d: invalid call %d", i, uint8(ev.Call))
		}
		if ev.Thread != 0 && l.Thread(ev.Thread) == nil {
			return invalid(i, "trace: event %d: unknown thread %d", i, ev.Thread)
		}
		if ev.Object != 0 && l.Object(ev.Object) == nil {
			return invalid(i, "trace: event %d: unknown object %d", i, ev.Object)
		}
		if ev.Mutex != 0 && l.Object(ev.Mutex) == nil {
			return invalid(i, "trace: event %d: unknown mutex %d", i, ev.Mutex)
		}
		switch ev.Class {
		case Before:
			if c, ok := open[ev.Thread]; ok {
				return invalid(i, "trace: event %d: thread %d issued %v while %v still open", i, ev.Thread, ev.Call, c)
			}
			if pairsWithAfter(ev.Call) {
				open[ev.Thread] = ev.Call
			}
		case After:
			c, ok := open[ev.Thread]
			if !ok {
				return invalid(i, "trace: event %d: thread %d AFTER %v without BEFORE", i, ev.Thread, ev.Call)
			}
			if c != ev.Call {
				return invalid(i, "trace: event %d: thread %d AFTER %v does not match open %v", i, ev.Thread, ev.Call, c)
			}
			delete(open, ev.Thread)
		default:
			return invalid(i, "trace: event %d: invalid class %d", i, ev.Class)
		}
	}
	// thr_exit never completes for the exiting thread; everything else
	// must have closed. The lowest such thread is named, so the verdict
	// does not depend on map order.
	unclosed, found := ThreadID(0), false
	for tid, c := range open {
		if c != CallThrExit && (!found || tid < unclosed) {
			unclosed, found = tid, true
		}
	}
	if found {
		return invalid(-1, "trace: thread %d: %v never completed", unclosed, open[unclosed])
	}
	return nil
}

// pairsWithAfter reports whether a Before event of call c is followed by a
// matching After event in a recording.
func pairsWithAfter(c Call) bool {
	switch c {
	case CallStartCollect, CallEndCollect:
		return false
	}
	return true
}

// Stats summarises a recording, backing the paper's section 4 log
// measurements (events per second, log sizes).
type Stats struct {
	Events        int
	Threads       int
	Objects       int
	Duration      vtime.Duration
	EventsPerSec  float64
	TextBytes     int
	BinaryBytes   int
	ProbeOverhead vtime.Duration // total recording intrusion
}

// ComputeStats derives summary statistics for the log.
func (l *Log) ComputeStats() Stats {
	s := Stats{
		Events:   len(l.Events),
		Threads:  len(l.Threads),
		Objects:  len(l.Objects),
		Duration: l.Duration(),
	}
	if s.Duration > 0 {
		s.EventsPerSec = float64(s.Events) / s.Duration.Seconds()
	}
	s.TextBytes = len(AppendText(nil, l))
	s.BinaryBytes = len(AppendBinary(nil, l))
	s.ProbeOverhead = vtime.Duration(int64(l.Header.ProbeCost) * int64(len(l.Events)))
	return s
}
