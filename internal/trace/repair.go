package trace

import (
	"fmt"
	"sort"
	"strings"

	"vppb/internal/vtime"
)

// This file implements log recovery. A log that reaches the Simulator over
// the wire can be truncated, reordered, clock-skewed or hand-edited;
// Repair applies a pipeline of named, composable strategies so that
// Validate → Repair → Validate either converges on a structurally sound
// log or fails with a typed error naming the unrecoverable record.

// RepairStrategy names one recovery pass.
type RepairStrategy string

// Repair strategies, in pipeline order.
const (
	// RepairSort restores the canonical event order (recording sequence
	// for processing, time-then-sequence for the final log) after events
	// were shuffled in transit.
	RepairSort RepairStrategy = "sort"
	// RepairDropDuplicates removes events whose sequence number was
	// already seen (duplicated records).
	RepairDropDuplicates RepairStrategy = "drop-duplicates"
	// RepairClampTimes forces timestamps monotone in recording order
	// (clock regressions) and widens the header window to cover every
	// event.
	RepairClampTimes RepairStrategy = "clamp-times"
	// RepairDropOrphans drops events with dangling thread/object
	// references, invalid calls or classes, and AFTER events with no
	// matching BEFORE.
	RepairDropOrphans RepairStrategy = "drop-orphans"
	// RepairSynthesize fabricates the missing AFTER record for calls left
	// open by truncation or record loss, so every BEFORE closes.
	RepairSynthesize RepairStrategy = "synthesize-afters"
)

// AllRepairStrategies returns every strategy in pipeline order.
func AllRepairStrategies() []RepairStrategy {
	return []RepairStrategy{
		RepairSort, RepairDropDuplicates, RepairClampTimes,
		RepairDropOrphans, RepairSynthesize,
	}
}

// RepairMutation is one change Repair made to the log.
type RepairMutation struct {
	Strategy RepairStrategy
	// Seq is the recorded sequence number of the affected event, or -1
	// for log-level changes (header window, global reorder, renumbering).
	Seq    int64
	Detail string
}

// RepairReport lists every mutation a Repair pass performed.
type RepairReport struct {
	Mutations   []RepairMutation
	Dropped     int
	Clamped     int
	Synthesized int
	Reordered   int
}

// Empty reports whether the repair changed nothing.
func (r *RepairReport) Empty() bool { return len(r.Mutations) == 0 }

// Summary is a one-line account of the repair.
func (r *RepairReport) Summary() string {
	if r.Empty() {
		return "log unchanged"
	}
	return fmt.Sprintf("%d mutations (%d dropped, %d clamped, %d synthesized, %d reordered)",
		len(r.Mutations), r.Dropped, r.Clamped, r.Synthesized, r.Reordered)
}

// String renders the full mutation list, one line per change.
func (r *RepairReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "repair: %s\n", r.Summary())
	for _, m := range r.Mutations {
		if m.Seq >= 0 {
			fmt.Fprintf(&b, "  [%s] seq %d: %s\n", m.Strategy, m.Seq, m.Detail)
		} else {
			fmt.Fprintf(&b, "  [%s] %s\n", m.Strategy, m.Detail)
		}
	}
	return b.String()
}

func (r *RepairReport) add(s RepairStrategy, seq int64, format string, args ...any) {
	r.Mutations = append(r.Mutations, RepairMutation{
		Strategy: s, Seq: seq, Detail: fmt.Sprintf(format, args...),
	})
}

// UnrecoverableError reports that repair could not produce a valid log.
// It names the record Validate still rejects.
type UnrecoverableError struct {
	// Index is the position of the offending event in the repaired log,
	// or -1 when the violation is log-level (e.g. a call that never
	// completes and synthesis was not enabled).
	Index int
	// Event is a copy of the offending event when Index >= 0.
	Event *Event
	// Err is the underlying Validate failure.
	Err error
}

func (e *UnrecoverableError) Error() string {
	if e.Event != nil {
		return fmt.Sprintf("trace: unrecoverable log: event %d (seq %d, T%d %s %s at %v): %v",
			e.Index, e.Event.Seq, e.Event.Thread, e.Event.Class, e.Event.Call, e.Event.Time, e.Err)
	}
	return fmt.Sprintf("trace: unrecoverable log: %v", e.Err)
}

func (e *UnrecoverableError) Unwrap() error { return e.Err }

// Repair returns a repaired copy of l plus a report of every mutation.
// With no explicit strategies, the full pipeline runs. The result either
// passes Validate or Repair returns a *UnrecoverableError; l itself is
// never modified.
func Repair(l *Log, strategies ...RepairStrategy) (*Log, *RepairReport, error) {
	if len(strategies) == 0 {
		strategies = AllRepairStrategies()
	}
	enabled := make(map[RepairStrategy]bool, len(strategies))
	for _, s := range strategies {
		switch s {
		case RepairSort, RepairDropDuplicates, RepairClampTimes, RepairDropOrphans, RepairSynthesize:
			enabled[s] = true
		default:
			return nil, nil, fmt.Errorf("trace: unknown repair strategy %q", s)
		}
	}

	c := l.Clone()
	rep := &RepairReport{}

	// Recover recording order first: pairing and clock invariants are
	// defined by the order events were recorded (Seq), not by their
	// possibly shuffled positions or corrupted timestamps.
	if enabled[RepairSort] {
		if !sort.SliceIsSorted(c.Events, func(i, j int) bool {
			return c.Events[i].Seq < c.Events[j].Seq
		}) {
			n := 0
			for i := 1; i < len(c.Events); i++ {
				if c.Events[i].Seq < c.Events[i-1].Seq {
					n++
				}
			}
			sort.SliceStable(c.Events, func(i, j int) bool {
				return c.Events[i].Seq < c.Events[j].Seq
			})
			rep.Reordered += n
			rep.add(RepairSort, -1, "restored recording order (%d out-of-order boundaries)", n)
		}
	}

	if enabled[RepairDropDuplicates] {
		seen := make(map[int64]bool, len(c.Events))
		kept := c.Events[:0]
		for _, ev := range c.Events {
			if seen[ev.Seq] {
				rep.Dropped++
				rep.add(RepairDropDuplicates, ev.Seq, "dropped duplicate of T%d %s %s", ev.Thread, ev.Class, ev.Call)
				continue
			}
			seen[ev.Seq] = true
			kept = append(kept, ev)
		}
		c.Events = kept
	}

	if enabled[RepairClampTimes] {
		prev := c.Header.Start
		if len(c.Events) > 0 && c.Events[0].Time < c.Header.Start {
			rep.add(RepairClampTimes, -1, "moved header start %v back to first event at %v", c.Header.Start, c.Events[0].Time)
			c.Header.Start = c.Events[0].Time
			prev = c.Header.Start
		}
		for i := range c.Events {
			if c.Events[i].Time < prev {
				rep.Clamped++
				rep.add(RepairClampTimes, c.Events[i].Seq, "clamped regressed time %v to %v", c.Events[i].Time, prev)
				c.Events[i].Time = prev
			}
			prev = c.Events[i].Time
		}
		if prev > c.Header.End {
			rep.add(RepairClampTimes, -1, "extended header end %v to last event at %v", c.Header.End, prev)
			c.Header.End = prev
		}
	}

	// Structural walk: resolve dangling references and BEFORE/AFTER
	// pairing in one pass over the recording order.
	renumber := false
	if enabled[RepairDropOrphans] || enabled[RepairSynthesize] {
		threadKnown := make(map[ThreadID]bool, len(c.Threads))
		for _, t := range c.Threads {
			threadKnown[t.ID] = true
		}
		objKnown := make(map[ObjectID]bool, len(c.Objects))
		for _, o := range c.Objects {
			objKnown[o.ID] = true
		}
		open := make(map[ThreadID]Event)
		out := make([]Event, 0, len(c.Events))
		drop := func(ev Event, format string, args ...any) {
			rep.Dropped++
			rep.add(RepairDropOrphans, ev.Seq, format, args...)
			renumber = true
		}
		synthAfter := func(before Event, at vtime.Time) {
			after := before
			after.Class = After
			after.Time = at
			rep.Synthesized++
			rep.add(RepairSynthesize, before.Seq, "synthesized AFTER %s for T%d at %v", before.Call, before.Thread, at)
			out = append(out, after)
			renumber = true
		}
		for _, ev := range c.Events {
			if enabled[RepairDropOrphans] {
				if ev.Call == CallNone || ev.Call >= numCalls {
					drop(ev, "dropped event with invalid call %d", uint8(ev.Call))
					continue
				}
				if ev.Class != Before && ev.Class != After {
					drop(ev, "dropped event with invalid class %d", uint8(ev.Class))
					continue
				}
				if ev.Thread != 0 && !threadKnown[ev.Thread] {
					drop(ev, "dropped event of unknown thread %d", ev.Thread)
					continue
				}
				if ev.Object != 0 && !objKnown[ev.Object] {
					drop(ev, "dropped %s %s referencing unknown object %d", ev.Class, ev.Call, ev.Object)
					continue
				}
				if ev.Mutex != 0 && !objKnown[ev.Mutex] {
					drop(ev, "dropped %s %s referencing unknown mutex %d", ev.Class, ev.Call, ev.Mutex)
					continue
				}
			}
			switch ev.Class {
			case Before:
				if prevOpen, ok := open[ev.Thread]; ok {
					if prevOpen.Call == CallThrExit {
						// Nothing legitimately follows a thread's exit.
						if enabled[RepairDropOrphans] {
							drop(ev, "dropped event after thr_exit of T%d", ev.Thread)
							continue
						}
					} else if enabled[RepairSynthesize] {
						// The AFTER for the open call was lost; close it
						// just before this event so the pairing invariant
						// holds.
						synthAfter(prevOpen, ev.Time)
						delete(open, ev.Thread)
					}
				}
				if pairsWithAfter(ev.Call) {
					open[ev.Thread] = ev
				}
				out = append(out, ev)
			case After:
				prevOpen, ok := open[ev.Thread]
				if !ok || prevOpen.Call != ev.Call {
					if enabled[RepairDropOrphans] {
						drop(ev, "dropped AFTER %s without matching BEFORE", ev.Call)
						continue
					}
					out = append(out, ev)
					continue
				}
				delete(open, ev.Thread)
				out = append(out, ev)
			default:
				out = append(out, ev)
			}
		}
		if enabled[RepairSynthesize] && len(open) > 0 {
			// Truncation cut the log while these calls were in flight:
			// close them at the end of the recording, in thread order for
			// determinism. An open thr_exit is legitimate (it never
			// completes for the exiting thread).
			tids := make([]ThreadID, 0, len(open))
			for tid := range open {
				if open[tid].Call != CallThrExit {
					tids = append(tids, tid)
				}
			}
			sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
			end := c.Header.End
			if n := len(out); n > 0 && out[n-1].Time > end {
				end = out[n-1].Time
			}
			for _, tid := range tids {
				synthAfter(open[tid], end)
			}
		}
		c.Events = out
	}

	// Restore canonical sequence numbering and global order after
	// insertions or deletions changed the event list's shape.
	if renumber {
		for i := range c.Events {
			c.Events[i].Seq = int64(i)
		}
		rep.add(RepairSort, -1, "renumbered %d events", len(c.Events))
	}
	if enabled[RepairSort] {
		c.SortEvents()
	}

	if err := c.validate(); err != nil {
		ue := &UnrecoverableError{Index: err.Index, Err: err}
		if err.Index >= 0 && err.Index < len(c.Events) {
			ev := c.Events[err.Index]
			ue.Event = &ev
		}
		return nil, rep, ue
	}
	return c, rep, nil
}
