package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vppb/internal/source"
	"vppb/internal/vtime"
)

// This file keeps the line-and-strings.Fields text reader and the
// map-based BuildProfile that the byte-level decoder and the flat profile
// builder replaced. They serve only as differential oracles: the fuzz and
// table tests require the production code to return a reflect.DeepEqual
// result or the identical error text on every input.

// readTextOracle parses a text-format log one bufio.Scanner line and one
// strings.Fields slice at a time.
func readTextOracle(data []byte) (*Log, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	l := &Log{}
	lineNo := 0
	sawMagic := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !sawMagic {
			if line != textMagic {
				return nil, fmt.Errorf("trace: line %d: not a vppb log (missing %q)", lineNo, textMagic)
			}
			sawMagic = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if err := oracleTextLine(l, fields); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if !sawMagic {
		return nil, fmt.Errorf("trace: empty input")
	}
	return l, nil
}

func oracleTextLine(l *Log, fields []string) error {
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "program":
		if len(fields) > 1 {
			l.Header.Program = unquote(fields[1])
		}
	case "cpus", "lwps", "probecost", "start", "end":
		if len(fields) < 2 {
			return fmt.Errorf("%s: missing value", fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", fields[0], err)
		}
		switch fields[0] {
		case "cpus":
			l.Header.CPUs = int(v)
		case "lwps":
			l.Header.LWPs = int(v)
		case "probecost":
			l.Header.ProbeCost = vtime.Duration(v)
		case "start":
			l.Header.Start = vtime.Time(v)
		case "end":
			l.Header.End = vtime.Time(v)
		}
	case "thread":
		return oracleThreadLine(l, fields)
	case "object":
		return oracleObjectLine(l, fields)
	case "event":
		return oracleEventLine(l, fields)
	default:
		return fmt.Errorf("unknown record %q", fields[0])
	}
	return nil
}

func oracleThreadLine(l *Log, fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("thread: missing id")
	}
	id, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return fmt.Errorf("thread id: %w", err)
	}
	t := ThreadInfo{ID: ThreadID(id), BoundCPU: -1}
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("thread: malformed field %q", f)
		}
		switch k {
		case "name":
			t.Name = unquote(v)
		case "func":
			t.Func = unquote(v)
		case "bound":
			t.Bound = v == "1"
		case "boundcpu":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			t.BoundCPU = int32(n)
		case "prio":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			t.Prio = int32(n)
		default:
			return fmt.Errorf("thread: unknown field %q", k)
		}
	}
	l.Threads = append(l.Threads, t)
	return nil
}

func oracleObjectLine(l *Log, fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("object: missing id")
	}
	id, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return fmt.Errorf("object id: %w", err)
	}
	o := ObjectInfo{ID: ObjectID(id)}
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("object: malformed field %q", f)
		}
		switch k {
		case "kind":
			switch v {
			case "mutex":
				o.Kind = ObjMutex
			case "sema":
				o.Kind = ObjSema
			case "cond":
				o.Kind = ObjCond
			case "rwlock":
				o.Kind = ObjRWLock
			case "device":
				o.Kind = ObjDevice
			default:
				return fmt.Errorf("object: unknown kind %q", v)
			}
		case "name":
			o.Name = unquote(v)
		case "count":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			o.InitCount = int32(n)
		default:
			return fmt.Errorf("object: unknown field %q", k)
		}
	}
	if o.Kind == ObjNone {
		return fmt.Errorf("object %d: missing kind", o.ID)
	}
	l.Objects = append(l.Objects, o)
	return nil
}

func oracleEventLine(l *Log, fields []string) error {
	if len(fields) < 6 {
		return fmt.Errorf("event: want at least 6 fields, got %d", len(fields))
	}
	var ev Event
	seq, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return fmt.Errorf("event seq: %w", err)
	}
	ev.Seq = seq
	ts, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return fmt.Errorf("event time: %w", err)
	}
	ev.Time = vtime.Time(ts)
	if !strings.HasPrefix(fields[3], "T") {
		return fmt.Errorf("event thread: %q", fields[3])
	}
	tid, err := strconv.ParseInt(fields[3][1:], 10, 32)
	if err != nil {
		return fmt.Errorf("event thread: %w", err)
	}
	ev.Thread = ThreadID(tid)
	switch fields[4] {
	case "before":
		ev.Class = Before
	case "after":
		ev.Class = After
	default:
		return fmt.Errorf("event class: %q", fields[4])
	}
	call, err := ParseCall(fields[5])
	if err != nil {
		return err
	}
	ev.Call = call
	for _, f := range fields[6:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("event: malformed field %q", f)
		}
		switch k {
		case "obj":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			ev.Object = ObjectID(n)
		case "mutex":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			ev.Mutex = ObjectID(n)
		case "target":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			ev.Target = ThreadID(n)
		case "ok":
			ev.OK = v == "1"
		case "timeout":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return err
			}
			ev.Timeout = vtime.Duration(n)
		case "prio":
			n, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return err
			}
			ev.Prio = int32(n)
		case "loc":
			file, lineStr, ok := cutLast(v, ":")
			if !ok {
				return fmt.Errorf("event loc: %q", v)
			}
			n, err := strconv.Atoi(lineStr)
			if err != nil {
				return err
			}
			ev.Loc = source.Loc{File: unquote(file), Line: n}
		default:
			return fmt.Errorf("event: unknown field %q", k)
		}
	}
	l.Events = append(l.Events, ev)
	return nil
}

func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// buildProfileOracle derives the profile through a map of whole-Event
// copies per thread, the way BuildProfile did before the flat rewrite.
func buildProfileOracle(l *Log) (*Profile, error) {
	if l.Header.CPUs != 1 || l.Header.LWPs != 1 {
		return nil, fmt.Errorf("trace: profile requires a 1-CPU/1-LWP recording, log has %d CPUs, %d LWPs",
			l.Header.CPUs, l.Header.LWPs)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}

	// Attribute each global inter-event gap to the generator of the later
	// event, minus the probe cost of that event. Along the same walk,
	// track who is waiting on each condition variable so that broadcasts
	// can record how many threads they released (the barrier fix input).
	type attributed struct {
		ev       Event
		cpu      vtime.Duration
		released int32
	}
	perThread := make(map[ThreadID][]attributed)
	condWaiters := make(map[ObjectID]map[ThreadID]bool)
	waitingOn := make(map[ThreadID]ObjectID)
	prev := l.Header.Start
	for _, ev := range l.Events {
		gap := ev.Time.Sub(prev) - l.Header.ProbeCost
		if gap < 0 {
			gap = 0
		}
		// A timed wait that expired, or an I/O completion, idled rather
		// than computed.
		if ev.Class == After && (ev.Call == CallIO || (ev.Call == CallCondTimedWait && !ev.OK)) {
			gap = 0
		}
		a := attributed{ev: ev, cpu: gap}
		switch {
		case ev.Class == Before && (ev.Call == CallCondWait || ev.Call == CallCondTimedWait):
			if condWaiters[ev.Object] == nil {
				condWaiters[ev.Object] = make(map[ThreadID]bool)
			}
			condWaiters[ev.Object][ev.Thread] = true
			waitingOn[ev.Thread] = ev.Object
		case ev.Class == After && (ev.Call == CallCondWait || ev.Call == CallCondTimedWait):
			delete(condWaiters[ev.Object], ev.Thread)
			delete(waitingOn, ev.Thread)
		case ev.Class == Before && ev.Call == CallCondBroadcast:
			a.released = int32(len(condWaiters[ev.Object]))
		}
		perThread[ev.Thread] = append(perThread[ev.Thread], a)
		prev = ev.Time
	}

	p := &Profile{Log: l, Threads: make(map[ThreadID]*ThreadProfile)}
	for tid, evs := range perThread {
		tp := &ThreadProfile{}
		if info := l.Thread(tid); info != nil {
			tp.Info = *info
		} else {
			tp.Info = ThreadInfo{ID: tid, BoundCPU: -1}
		}
		var pending *CallRecord
		for i := 0; i < len(evs); i++ {
			a := evs[i]
			switch a.ev.Class {
			case Before:
				if pending != nil {
					// Unpaired Before (thr_exit, collection markers):
					// already flushed below, so a dangling record here is
					// a bug in Validate.
					return nil, fmt.Errorf("trace: thread %d: overlapping calls at seq %d", tid, a.ev.Seq)
				}
				rec := CallRecord{
					CPUBefore:   a.cpu,
					Call:        a.ev.Call,
					Object:      a.ev.Object,
					MutexObject: a.ev.Mutex,
					Target:      a.ev.Target,
					OK:          a.ev.OK,
					Timeout:     a.ev.Timeout,
					Prio:        a.ev.Prio,
					Loc:         a.ev.Loc,
					Released:    a.released,
					Seq:         a.ev.Seq,
				}
				if pairsWithAfter(a.ev.Call) && a.ev.Call != CallThrExit {
					pending = &rec
				} else {
					tp.Calls = append(tp.Calls, rec)
				}
			case After:
				if pending == nil {
					return nil, fmt.Errorf("trace: thread %d: AFTER without BEFORE at seq %d", tid, a.ev.Seq)
				}
				pending.CallCPU = a.cpu
				// Did anyone else run in between? Compare global
				// sequence numbers: an intervening event from another
				// thread means the call blocked.
				pending.BlockedInLog = a.ev.Seq != pending.Seq+1
				if a.ev.Call == CallThrJoin {
					pending.JoinedTarget = a.ev.Target
				}
				if a.ev.Call == CallCondTimedWait || a.ev.Call == CallMutexTryLock || a.ev.Call == CallSemaTryWait {
					pending.OK = a.ev.OK
				}
				tp.Calls = append(tp.Calls, *pending)
				pending = nil
			}
		}
		if pending != nil {
			return nil, fmt.Errorf("trace: thread %d: call %v never completed", tid, pending.Call)
		}
		p.Threads[tid] = tp
	}
	p.IDs = make([]ThreadID, 0, len(p.Threads))
	for id := range p.Threads {
		p.IDs = append(p.IDs, id)
	}
	sort.Slice(p.IDs, func(i, j int) bool { return p.IDs[i] < p.IDs[j] })
	return p, nil
}
