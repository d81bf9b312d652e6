package core

import (
	"fmt"

	"vppb/internal/dispatch"
	"vppb/internal/sched"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

type tstate uint8

const (
	tNotStarted tstate = iota
	tRunnable
	tRunning
	tSleeping
	tWakePending // woken, communication delay in flight
	tZombie
)

func (s tstate) String() string {
	switch s {
	case tNotStarted:
		return "not-started"
	case tRunnable:
		return "runnable"
	case tRunning:
		return "running"
	case tSleeping:
		return "sleeping"
	case tWakePending:
		return "wake-pending"
	case tZombie:
		return "zombie"
	}
	return "?"
}

type opStage uint8

const (
	stCompute opStage = iota // burst preceding the call
	stCall                   // the call's own cost
	stWaiting                // suspended awaiting completion
)

// The simulation state lives in flat arenas: every thread and every
// synchronization object is a slot in a slice allocated once in newSim and
// addressed by its dense index (threads in ascending recorded-ID order,
// objects in Log.Objects order — the same indices trace.ProfileIndex
// precomputes). The arenas never grow, so pointers into them are stable
// and double as identities; wait queues thread through the arena with
// intrusive index links instead of per-object waiter slices. The steady
// state of the replay loop therefore allocates nothing per event: no maps,
// no queue growth, and a pointer-free event queue the garbage collector
// never has to scan.

// nilIdx is the null arena index. Every index field must be initialized
// explicitly: the zero value 0 is a valid slot.
const nilIdx = int32(-1)

// tqueue is an intrusive FIFO of threads linked by sthread.waitNext. A
// thread is in at most one such queue at a time (it is blocked on exactly
// one thing), so a single link per thread suffices.
type tqueue struct{ head, tail int32 }

func emptyTQ() tqueue { return tqueue{head: nilIdx, tail: nilIdx} }

func (q *tqueue) empty() bool { return q.head == nilIdx }

func (s *sim) pushQ(q *tqueue, ti int32) {
	t := &s.threads[ti]
	t.waitNext = nilIdx
	if q.tail == nilIdx {
		q.head = ti
	} else {
		s.threads[q.tail].waitNext = ti
	}
	q.tail = ti
}

func (s *sim) popQ(q *tqueue) int32 {
	ti := q.head
	if ti == nilIdx {
		return nilIdx
	}
	t := &s.threads[ti]
	q.head = t.waitNext
	if q.head == nilIdx {
		q.tail = nilIdx
	}
	t.waitNext = nilIdx
	return ti
}

// removeQ unlinks a specific thread from the queue; false if absent.
func (s *sim) removeQ(q *tqueue, ti int32) bool {
	prev := nilIdx
	for cur := q.head; cur != nilIdx; cur = s.threads[cur].waitNext {
		if cur != ti {
			prev = cur
			continue
		}
		next := s.threads[cur].waitNext
		if prev == nilIdx {
			q.head = next
		} else {
			s.threads[prev].waitNext = next
		}
		if q.tail == cur {
			q.tail = prev
		}
		s.threads[cur].waitNext = nilIdx
		return true
	}
	return false
}

// sthread replays one recorded thread. Slots live in the sim.threads
// arena; ti is the slot's own index.
type sthread struct {
	info   trace.ThreadInfo
	calls  []trace.CallRecord
	dcalls []trace.DenseCall // aligned with calls; precomputed arena indices
	idx    int
	ti     int32

	state    tstate
	stage    opStage
	workLeft vtime.Duration

	bound      bool
	boundCPU   int
	prio       int
	prioPinned bool

	lwp     *slwp
	lastCPU int

	waitObj    *sobject
	waitNext   int32 // intrusive link for the wait queue the thread is on
	timerEpoch uint64
	wakeEpoch  uint64

	// joinQ holds the threads blocked joining this thread, FIFO.
	joinQ tqueue

	// thr_suspend bookkeeping (see the threadlib kernel for semantics).
	suspended   bool
	grantLater  bool // a wake arrived while suspended
	parkedReady bool // was runnable/running when suspended

	// join bookkeeping
	reaped   bool
	joinedID trace.ThreadID

	// timed-wait outcome delivered at the After event
	okResult bool

	cpuTime vtime.Duration

	// timeline
	tlh       int // TimelineBuilder handle
	curState  trace.ThreadState
	spanStart vtime.Time
	curCPU    int32
	curLWP    int32
	inTL      bool
	// beforeTime is when the current record's Before event fired; beforeEv
	// holds the full event only for thr_exit records (the one case where
	// placement reads the Before event back, in exitThread).
	beforeTime vtime.Time
	beforeEv   trace.Event
}

func (t *sthread) id() trace.ThreadID { return t.info.ID }

// rec returns the thread's current call record, or nil when exhausted.
func (t *sthread) rec() *trace.CallRecord {
	if t.idx >= len(t.calls) {
		return nil
	}
	return &t.calls[t.idx]
}

// drec returns the dense indices of the current call record, or nil.
func (t *sthread) drec() *trace.DenseCall {
	if t.idx >= len(t.dcalls) {
		return nil
	}
	return &t.dcalls[t.idx]
}

// slwp is a simulated LWP. The embedded sched.LWPNode (identity, kernel
// priority, quantum, slice epoch) is owned by the shared scheduler core.
type slwp struct {
	sched.LWPNode
	thread    *sthread
	cpu       *scpu
	dedicated bool
	dead      bool
}

func (l *slwp) Node() *sched.LWPNode      { return &l.LWPNode }
func (l *slwp) SchedThread() *sthread     { return l.thread }
func (l *slwp) SetSchedThread(t *sthread) { l.thread = t }
func (l *slwp) SchedCPU() *scpu           { return l.cpu }
func (l *slwp) SetSchedCPU(c *scpu)       { l.cpu = c }

// scpu is a simulated processor. The embedded sched.CPUNode (identity,
// burst epoch) is owned by the shared scheduler core.
type scpu struct {
	sched.CPUNode
	lwp           *slwp
	lastAccounted vtime.Time
}

func (c *scpu) Node() *sched.CPUNode { return &c.CPUNode }
func (c *scpu) SchedLWP() *slwp      { return c.lwp }
func (c *scpu) SetSchedLWP(l *slwp)  { c.lwp = l }

// sthread's scheduler view: effective priority, binding, carrying LWP.
func (t *sthread) SchedPrio() int      { return t.prio }
func (t *sthread) SchedBound() bool    { return t.bound }
func (t *sthread) SchedBoundCPU() int  { return t.boundCPU }
func (t *sthread) SchedLWP() *slwp     { return t.lwp }
func (t *sthread) SetSchedLWP(l *slwp) { t.lwp = l }

// sobject is the simulated state of a synchronization object. Slots live
// in the sim.objects arena; oi is the slot's own index. Waiters are
// intrusive thread queues, not slices.
type sobject struct {
	info trace.ObjectInfo
	oi   int32

	owner *sthread
	// waitQ holds the mutex waiters, FIFO.
	waitQ tqueue

	count int
	// semaQ holds the semaphore waiters, FIFO.
	semaQ tqueue

	// condQ holds the condition waiters, FIFO; condLen mirrors its length
	// for the broadcast barrier-fix arithmetic.
	condQ   tqueue
	condLen int
	// pendingBroadcasts are barrier-fix broadcasters waiting for their
	// recorded number of arrivals (paper section 6), FIFO.
	pendingBroadcasts []pendingBroadcast

	// readers is the ordered set of threads holding the rwlock in read
	// mode, in acquisition order. Readers are running (not blocked), so
	// they may not carry the intrusive wait link; a dense-index slice
	// keeps membership tests and diagnostics deterministic.
	readers []int32
	writer  *sthread
	// rdWaitQ and wrWaitQ hold the blocked rwlock acquirers, FIFO.
	rdWaitQ tqueue
	wrWaitQ tqueue

	// I/O device (FIFO service). A queued requester's service time is its
	// current call record's Timeout, re-read when the device picks it up.
	ioCurrent *sthread
	ioQ       tqueue
	ioEpoch   uint64
}

type pendingBroadcast struct {
	broadcaster *sthread
	needed      int
}

type sevKind uint8

const (
	evBurst sevKind = iota
	evSlice
	evTimer  // cond_timedwait delay expiry
	evWake   // delayed (cross-CPU) wake delivery
	evIODone // device completes its current request
)

// sevent is a pointer-free queue entry: who is the arena index of the
// event's subject — a CPU for evBurst, an LWP for evSlice, a thread for
// evTimer/evWake, an object for evIODone. Keeping pointers out of the
// event queue means the collector never scans it and pushing an event
// never emits write barriers.
type sevent struct {
	kind  sevKind
	who   int32
	epoch uint64
}

// sliceEnt is one armed slice timer. Slice expirations are the dominant
// event traffic of compute-heavy replays (a burst that spans many quanta
// re-arms its slice on every expiry), and each LWP has at most one live
// timer, so they bypass the shared event queue. seq is reserved from the
// event queue's insertion counter at arm time, which keeps the merged
// delivery order byte-for-byte identical to pushing the timer through the
// heap — ties at the same instant still resolve by insertion order. The
// scheduler core's OnSliceInvalidated hook disarms eagerly, so every
// listed entry is valid and peeking needs no revalidation.
type sliceEnt struct {
	at  vtime.Time
	seq uint64
	who int32 // LWP index
}

func entKeyBefore(a, b *sliceEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// sliceRing keeps the armed timers in a ring sorted ascending by
// (at, seq): the earliest is at head, so peek and pop are O(1). A fresh
// arm usually carries the latest deadline of all (it starts now with a
// full quantum while the others have been burning theirs down), so the
// common insert is an O(1) append at the tail; out-of-order arms shift
// only their displacement.
type sliceRing struct {
	buf  []sliceEnt // capacity is a power of two
	head int
	n    int
}

func (r *sliceRing) peek() *sliceEnt { return &r.buf[r.head] }

func (r *sliceRing) pop() sliceEnt {
	e := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

func (r *sliceRing) insert(ent sliceEnt) {
	if r.n == len(r.buf) {
		r.grow()
	}
	mask := len(r.buf) - 1
	i := r.n
	for i > 0 {
		prev := &r.buf[(r.head+i-1)&mask]
		if !entKeyBefore(&ent, prev) {
			break
		}
		r.buf[(r.head+i)&mask] = *prev
		i--
	}
	r.buf[(r.head+i)&mask] = ent
	r.n++
}

func (r *sliceRing) removeWho(who int32) {
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head+i)&mask].who == who {
			for j := i; j < r.n-1; j++ {
				r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
			}
			r.n--
			return
		}
	}
}

func (r *sliceRing) grow() {
	next := make([]sliceEnt, max(2*len(r.buf), 8))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}

// sim is one simulation run.
type sim struct {
	m    Machine
	prof *trace.Profile
	sc   *sched.Core[*sthread, *slwp, *scpu]

	now    vtime.Time
	events vtime.EventQueue[sevent]

	// slices holds the armed slice timers; sliceArmed (parallel to lwps)
	// marks which LWPs have a listed entry.
	slices     sliceRing
	sliceArmed []bool

	threads []sthread // arena, ascending recorded-ID order
	objects []sobject // arena, Log.Objects order
	mainIdx int32
	cpus    []*scpu
	lwps    []*slwp
	nextLWP int

	zombieQ  tqueue // unreaped, exit order
	anyJoinQ tqueue // wildcard joiners, arrival order

	// inert is handed out for dangling object references after the run has
	// already been failed, so the error path needs no nil checks.
	inert *sobject

	tb       *trace.TimelineBuilder
	eventSeq int64
	live     int
	err      error
}

// newSim assembles one simulation run over a shared profile. The profile
// is read-only from here on: the run's mutable state (threads, objects,
// queues) is built fresh, so concurrent runs over one profile never touch
// shared memory.
func newSim(prof *trace.Profile, m Machine) (*sim, error) {
	pol, err := sched.New(m.Policy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	dense := prof.Dense()
	ids := prof.ThreadIDs()
	s := &sim{
		m:        m,
		prof:     prof,
		threads:  make([]sthread, len(ids)),
		objects:  make([]sobject, len(prof.Log.Objects)),
		mainIdx:  dense.ThreadIndex(trace.MainThread),
		zombieQ:  emptyTQ(),
		anyJoinQ: emptyTQ(),
	}
	if s.mainIdx == nilIdx {
		return nil, fmt.Errorf("core: recording has no main thread")
	}
	if !m.DiscardTimeline {
		s.tb = trace.NewTimelineBuilder()
	}
	s.cpus = make([]*scpu, 0, m.CPUs)
	for i := 0; i < m.CPUs; i++ {
		s.cpus = append(s.cpus, &scpu{CPUNode: sched.CPUNode{ID: i}})
	}
	nThreads := len(ids)
	s.sc = sched.NewCore[*sthread, *slwp, *scpu](pol, (*sengine)(s), s.cpus, m.NoPreemption, nThreads)
	pool := m.LWPs
	if pool <= 0 {
		pool = m.CPUs
	}
	s.lwps = make([]*slwp, 0, pool)
	s.sliceArmed = make([]bool, 0, pool)
	ringCap := 8
	for ringCap < pool {
		ringCap *= 2
	}
	s.slices.buf = make([]sliceEnt, ringCap)
	s.sc.OnSliceInvalidated = func(l *slwp) { s.disarmSlice(int32(l.ID)) }
	for i := 0; i < pool; i++ {
		s.sc.AddIdleLWP(s.newLWP(false))
	}
	// The queue's steady state holds at most one burst event per CPU plus
	// one timer, wake or I/O event per thread (slice timers live in the
	// per-LWP slots, not the queue); reserving that up front keeps heap
	// growth out of the replay loop.
	s.events.Reserve(2*nThreads + 2*m.CPUs + 8)
	for i, oi := range prof.Log.Objects {
		o := &s.objects[i]
		initObject(o, oi, int32(i))
		o.count = int(oi.InitCount)
	}
	// Instantiate every thread appearing in the profile, in the profile's
	// precomputed ascending ID order. Threads other than main stay dormant
	// until their recorded thr_create replays.
	for i, id := range ids {
		tp := prof.Threads[id]
		t := &s.threads[i]
		*t = sthread{
			info:     tp.Info,
			calls:    tp.Calls,
			dcalls:   dense.Calls[i],
			ti:       int32(i),
			state:    tNotStarted,
			bound:    tp.Info.Bound,
			boundCPU: int(tp.Info.BoundCPU),
			prio:     dispatch.Clamp(int(tp.Info.Prio)),
			lastCPU:  -1,
			waitNext: nilIdx,
			joinQ:    emptyTQ(),
			curState: trace.StateBlocked,
			curCPU:   -1,
			curLWP:   -1,
		}
		s.applyOverride(t)
	}
	return s, nil
}

func initObject(o *sobject, oi trace.ObjectInfo, idx int32) {
	o.info = oi
	o.oi = idx
	o.waitQ = emptyTQ()
	o.semaQ = emptyTQ()
	o.condQ = emptyTQ()
	o.rdWaitQ = emptyTQ()
	o.wrWaitQ = emptyTQ()
	o.ioQ = emptyTQ()
	if oi.Kind == trace.ObjRWLock {
		o.readers = make([]int32, 0, 4)
	}
}

func (s *sim) applyOverride(t *sthread) {
	ov, ok := s.m.Overrides[t.info.ID]
	if !ok {
		return
	}
	switch ov.Binding {
	case BindUnbound:
		t.bound = false
		t.boundCPU = -1
	case BindLWP:
		t.bound = true
		t.boundCPU = -1
	case BindCPU:
		t.bound = true
		t.boundCPU = ov.CPU
		if t.boundCPU >= s.m.CPUs || t.boundCPU < 0 {
			t.boundCPU = s.m.CPUs - 1
		}
	}
	if ov.Priority != nil {
		t.prio = dispatch.Clamp(*ov.Priority)
		t.prioPinned = true
	}
}

func (s *sim) newLWP(dedicated bool) *slwp {
	l := &slwp{
		LWPNode:   sched.LWPNode{ID: s.nextLWP, Prio: dispatch.DefaultPriority},
		dedicated: dedicated,
	}
	l.QuantumLeft = s.sc.Quantum(l.Prio)
	s.nextLWP++
	s.lwps = append(s.lwps, l)
	s.sliceArmed = append(s.sliceArmed, false)
	return l
}

func (s *sim) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// run drives the event loop to completion, under the guardrail budgets:
// a corrupted or repaired log must terminate with a structured diagnostic,
// never hang.
func (s *sim) run() (*Result, error) {
	s.startThread(&s.threads[s.mainIdx])
	s.sc.DispatchAll()
	s.sc.PreemptPass()
	// Livelock tracking, reset whenever virtual time advances.
	stuck := 0
	var stuckKinds [len(sevKindNames)]int64
	for s.live > 0 && s.err == nil {
		// Take the earlier of the heap head and the earliest armed slice
		// timer, comparing full (time, seq) keys so delivery order is
		// byte-for-byte what a single combined queue would produce.
		var at vtime.Time
		var ev sevent
		if s.slices.n == 0 && s.events.Len() == 0 {
			s.fail(s.deadlockError())
			break
		}
		fireSlice := s.slices.n > 0
		if fireSlice && s.events.Len() > 0 {
			ent := s.slices.peek()
			if hat, hseq := s.events.PeekKey(); hat < ent.at || (hat == ent.at && hseq < ent.seq) {
				fireSlice = false
			}
		}
		if fireSlice {
			ent := s.slices.pop()
			s.sliceArmed[ent.who] = false
			at = ent.at
			ev = sevent{kind: evSlice, who: ent.who, epoch: s.lwps[ent.who].SliceEpoch}
		} else {
			at, ev = s.events.Pop()
		}
		if at > s.now {
			s.now = at
			stuck = 0
			stuckKinds = [len(sevKindNames)]int64{}
		}
		if s.m.MaxVirtualTime > 0 && s.now.Sub(0) > s.m.MaxVirtualTime {
			s.fail(&BudgetError{Kind: "virtual-time", Limit: int64(s.m.MaxVirtualTime), At: s.now, Events: s.eventSeq})
			break
		}
		if s.m.MaxSimEvents > 0 && s.eventSeq > s.m.MaxSimEvents {
			s.fail(&BudgetError{Kind: "events", Limit: s.m.MaxSimEvents, At: s.now, Events: s.eventSeq})
			break
		}
		stuck++
		if int(ev.kind) < len(stuckKinds) {
			stuckKinds[ev.kind]++
		}
		if s.m.LivelockWindow > 0 && stuck > s.m.LivelockWindow {
			s.fail(s.livelockError(stuckKinds, s.m.LivelockWindow))
			break
		}
		s.handle(ev)
		s.sc.DispatchAll()
		s.sc.PreemptPass()
	}
	if s.err != nil {
		return nil, s.err
	}
	res := &Result{
		Machine:      s.m,
		Duration:     s.now.Sub(0),
		PerThreadCPU: make(map[trace.ThreadID]vtime.Duration, len(s.threads)),
		Events:       s.eventSeq,
	}
	for i := range s.threads {
		t := &s.threads[i]
		res.PerThreadCPU[t.id()] = t.cpuTime
	}
	if s.tb != nil {
		res.Timeline = s.tb.Build(s.prof.Log.Header.Program, s.m.CPUs, len(s.lwps), res.Duration)
		res.Timeline.Objects = append([]trace.ObjectInfo(nil), s.prof.Log.Objects...)
	}
	return res, nil
}

// startThread activates a thread at the current time.
func (s *sim) startThread(t *sthread) {
	if t.state != tNotStarted {
		s.fail(fmt.Errorf("core: thread T%d started twice", t.id()))
		return
	}
	s.live++
	if t.bound {
		l := s.newLWP(true)
		l.thread = t
		t.lwp = l
	}
	if s.tb != nil {
		t.tlh = s.tb.StartThread(t.info, s.now)
		t.inTL = true
		// The thread places exactly one event per call record plus at most
		// one exit event. Span counts come out below the call count on
		// real traces (adjacent same-state spans coalesce), so half the
		// call count covers most threads and the rest grow amortized.
		s.tb.Reserve(t.tlh, len(t.calls)/2+8, len(t.calls)+1)
	}
	t.spanStart = s.now
	t.stage = stCompute
	if r := t.rec(); r != nil {
		t.workLeft = r.CPUBefore
	} else {
		// A thread with no recorded events exits immediately.
		t.workLeft = 0
	}
	t.state = tSleeping // wake() requires a non-runnable state
	s.wake(t, -1, false)
}

// ---- timeline --------------------------------------------------------------

func (s *sim) setTState(t *sthread, st trace.ThreadState, cpu, lwp int32) {
	if s.tb == nil {
		return
	}
	if t.inTL {
		s.tb.AddSpanH(t.tlh, trace.Span{
			Start: t.spanStart, End: s.now,
			State: t.curState, CPU: t.curCPU, LWP: t.curLWP,
		})
	}
	t.curState = st
	t.curCPU = cpu
	t.curLWP = lwp
	t.spanStart = s.now
}

func (s *sim) endTimeline(t *sthread) {
	if s.tb != nil && t.inTL {
		s.tb.AddSpanH(t.tlh, trace.Span{
			Start: t.spanStart, End: s.now,
			State: t.curState, CPU: t.curCPU, LWP: t.curLWP,
		})
		s.tb.EndThreadH(t.tlh, s.now)
		t.inTL = false
	}
}

// fillEvent synthesizes the simulated probe event for the thread's
// current call record directly into dst, avoiding a by-value trip through
// the (large) trace.Event. The event-sequence increment it performs must
// happen exactly once per simulated probe event, timeline or not — it
// feeds Result.Events and the event budget.
func (s *sim) fillEvent(dst *trace.Event, t *sthread, class trace.EventClass) {
	r := t.rec()
	*dst = trace.Event{
		Seq:    s.eventSeq,
		Time:   s.now,
		Thread: t.id(),
		Class:  class,
		Call:   r.Call,
		Object: r.Object,
		Loc:    r.Loc,
	}
	s.eventSeq++
	switch r.Call {
	case trace.CallThrCreate:
		dst.Target = r.Target
	case trace.CallThrJoin:
		if class == trace.Before {
			dst.Target = r.Target
		} else {
			dst.Target = t.joinedID
		}
	case trace.CallCondTimedWait:
		dst.Timeout = r.Timeout
		dst.OK = t.okResult
	case trace.CallMutexTryLock, trace.CallSemaTryWait:
		dst.OK = r.OK
	case trace.CallThrSetPrio, trace.CallThrSetConcurrency:
		dst.Prio = r.Prio
	}
}

// placeAfter emits the After event and the placed-event record for the
// thread's completed call, filled in place in the timeline's slot.
func (s *sim) placeAfter(t *sthread) {
	if s.tb == nil {
		s.eventSeq++
		return
	}
	pe := s.tb.NextEventH(t.tlh)
	s.fillEvent(&pe.Event, t, trace.After)
	pe.CPU = int32(t.lastCPU)
	pe.Start = t.beforeTime
	pe.End = pe.Event.Time
}

// ---- scheduling -------------------------------------------------------------

// wake makes a thread runnable. fromCPU identifies where the waking event
// happened; a cross-CPU wake is delayed by the machine's communication
// delay. boost applies the TS sleep-return priority lift.
func (s *sim) wake(t *sthread, fromCPU int, boost bool) {
	if t.suspended {
		t.grantLater = true
		return
	}
	if t.state == tWakePending {
		return
	}
	if s.m.CommDelay > 0 && fromCPU >= 0 && t.lastCPU >= 0 && fromCPU != t.lastCPU {
		t.state = tWakePending
		t.wakeEpoch++
		s.events.Push(s.now.Add(s.m.CommDelay), sevent{kind: evWake, who: t.ti, epoch: t.wakeEpoch})
		return
	}
	s.deliverWake(t, boost)
}

func (s *sim) deliverWake(t *sthread, boost bool) {
	t.state = tRunnable
	t.waitObj = nil
	s.sc.Wake(t, boost)
}

// The queueing, dispatch, preemption and time-slice machinery lives in
// internal/sched — the same core the recording kernel drives, so the
// Simulator cannot drift from the machine the trace was recorded on. The
// sengine adapter below receives the core's decisions and applies this
// engine's specifics: record replay, simulated probes and timeline spans.

// sengine adapts sim to sched.Engine.
type sengine sim

func (e *sengine) Account(cpu *scpu) { (*sim)(e).account(cpu) }

// Placed: the core linked l to a previously idle cpu (the kernel-queue
// dispatch path).
func (e *sengine) Placed(cpu *scpu, l *slwp) {
	s := (*sim)(e)
	t := l.thread
	cpu.lastAccounted = s.now
	t.lastCPU = cpu.ID
	t.state = tRunning
	s.setTState(t, trace.StateRunning, int32(cpu.ID), int32(l.ID))
	if t.stage == stWaiting {
		s.completeOp(cpu, t)
		if s.err != nil || cpu.lwp != l || l.thread != t {
			return
		}
	}
	s.scheduleBurst(cpu)
	s.scheduleSlice(l)
}

// Switched: the core handed a still-linked pool LWP its next thread (the
// run-to-next-thread path that skips the kernel queue).
func (e *sengine) Switched(cpu *scpu, l *slwp, next *sthread) {
	s := (*sim)(e)
	next.lastCPU = cpu.ID
	next.state = tRunning
	s.setTState(next, trace.StateRunning, int32(cpu.ID), int32(l.ID))
	if next.stage == stWaiting {
		s.completeOp(cpu, next)
		if s.err != nil || cpu.lwp != l || l.thread != next {
			return
		}
	}
	s.scheduleBurst(cpu)
	s.scheduleSlice(l)
}

func (e *sengine) Runnable(t *sthread, l *slwp) {
	s := (*sim)(e)
	t.state = tRunnable
	s.setTState(t, trace.StateRunnable, -1, int32(l.ID))
}

func (e *sengine) Parked(t *sthread) {
	s := (*sim)(e)
	t.state = tRunnable
	s.setTState(t, trace.StateRunnable, -1, -1)
}

// completeOp finishes a call whose completion happened while the thread
// was off-CPU: emit the After event and advance to the next record.
func (s *sim) completeOp(cpu *scpu, t *sthread) {
	s.placeAfter(t)
	s.advanceRecord(cpu, t)
}

// advanceRecord moves the thread to its next call record.
func (s *sim) advanceRecord(cpu *scpu, t *sthread) {
	t.idx++
	t.stage = stCompute
	if r := t.rec(); r != nil {
		t.workLeft = r.CPUBefore
		return
	}
	// Recording exhausted without thr_exit: treat as exit (collection
	// markers end this way for main).
	s.exitThread(cpu, t)
}

func (s *sim) scheduleBurst(cpu *scpu) {
	cpu.Epoch++
	l := cpu.lwp
	if l == nil || l.thread == nil {
		return
	}
	s.events.Push(s.now.Add(l.thread.workLeft), sevent{kind: evBurst, who: int32(cpu.ID), epoch: cpu.Epoch})
}

func (s *sim) scheduleSlice(l *slwp) {
	delay, epoch, ok := s.sc.ArmSlice(l)
	if !ok {
		// The policy runs threads to block: no slice event.
		return
	}
	_ = epoch // the fire path reads the LWP's live epoch
	i := int32(l.ID)
	if s.sliceArmed[i] {
		// Re-arm of a still-listed timer (run-to-next-thread keeps the
		// LWP linked): drop the old entry first.
		s.slices.removeWho(i)
	}
	s.sliceArmed[i] = true
	s.slices.insert(sliceEnt{at: s.now.Add(delay), seq: s.events.ReserveSeq(), who: i})
}

// disarmSlice drops an LWP's listed timer; the scheduler core invokes it
// (via OnSliceInvalidated) whenever the LWP leaves its CPU.
func (s *sim) disarmSlice(i int32) {
	if i >= int32(len(s.sliceArmed)) || !s.sliceArmed[i] {
		return
	}
	s.slices.removeWho(i)
	s.sliceArmed[i] = false
}

func (s *sim) account(cpu *scpu) {
	dt := s.now.Sub(cpu.lastAccounted)
	cpu.lastAccounted = s.now
	l := cpu.lwp
	if l == nil || dt <= 0 {
		return
	}
	l.QuantumLeft -= dt
	t := l.thread
	if t == nil {
		return
	}
	if dt > t.workLeft {
		dt = t.workLeft
	}
	t.workLeft -= dt
	t.cpuTime += dt
}

func (s *sim) handle(ev sevent) {
	switch ev.kind {
	case evBurst:
		cpu := s.cpus[ev.who]
		if cpu.Epoch != ev.epoch || cpu.lwp == nil {
			return
		}
		s.account(cpu)
		s.advanceThread(cpu)
	case evSlice:
		l := s.lwps[ev.who]
		if l.SliceEpoch != ev.epoch || l.cpu == nil || l.dead {
			return
		}
		if !s.sc.SliceExpired(l) {
			// The LWP keeps its CPU; re-arm the next slice.
			s.scheduleSlice(l)
		}
	case evTimer:
		t := &s.threads[ev.who]
		if t.timerEpoch != ev.epoch {
			return
		}
		s.timerExpired(t)
	case evWake:
		t := &s.threads[ev.who]
		if t.wakeEpoch != ev.epoch || t.state != tWakePending {
			return
		}
		if t.suspended {
			t.grantLater = true
			t.state = tSleeping
			return
		}
		s.deliverWake(t, true)
	case evIODone:
		if ev.who == nilIdx {
			return
		}
		s.ioDone(&s.objects[ev.who], ev.epoch)
	}
}

// advanceThread drives the running thread through its record phases.
func (s *sim) advanceThread(cpu *scpu) {
	for {
		l := cpu.lwp
		if l == nil {
			return
		}
		t := l.thread
		if t == nil {
			return
		}
		if t.workLeft > 0 {
			s.scheduleBurst(cpu)
			return
		}
		r := t.rec()
		if r == nil {
			s.exitThread(cpu, t)
			return
		}
		switch t.stage {
		case stCompute:
			t.beforeTime = s.now
			if s.tb != nil && r.Call == trace.CallThrExit {
				s.fillEvent(&t.beforeEv, t, trace.Before)
			} else {
				// The Before event feeds placement only: its time (saved
				// above) bounds the placed span, and nothing else reads it
				// except for thr_exit. The sequence number is still consumed.
				s.eventSeq++
			}
			t.stage = stCall
			t.workLeft = s.callCost(t, r)
		case stCall:
			blocked := s.applyOp(cpu, t, r, t.drec())
			if blocked || s.err != nil {
				return
			}
			if t.state == tZombie {
				return
			}
			s.placeAfter(t)
			s.advanceRecord(cpu, t)
			if t.state == tZombie {
				return
			}
		case stWaiting:
			return
		}
	}
}

// callCost scales the recorded call cost when an override changes the
// caller's (or created thread's) binding relative to the recording.
func (s *sim) callCost(t *sthread, r *trace.CallRecord) vtime.Duration {
	cost := r.CallCPU
	switch {
	case r.Call == trace.CallThrCreate:
		dc := t.drec()
		if dc == nil || dc.Target == nilIdx {
			return cost
		}
		child := &s.threads[dc.Target]
		recBound := child.info.Bound
		effBound := child.bound
		if recBound == effBound {
			return cost
		}
		if effBound {
			return vtime.Duration(float64(cost) * s.m.BoundCreateFactor)
		}
		return vtime.Duration(float64(cost) / s.m.BoundCreateFactor)
	case r.Call.Sync():
		recBound := t.info.Bound
		effBound := t.bound
		if recBound == effBound {
			return cost
		}
		if effBound {
			return vtime.Duration(float64(cost) * s.m.BoundSyncFactor)
		}
		return vtime.Duration(float64(cost) / s.m.BoundSyncFactor)
	}
	return cost
}

// blockThread suspends the running thread.
func (s *sim) blockThread(cpu *scpu, t *sthread, obj *sobject) {
	t.state = tSleeping
	t.stage = stWaiting
	t.waitObj = obj
	s.setTState(t, trace.StateBlocked, -1, -1)
	s.detachFromCPU(cpu, t)
}

func (s *sim) detachFromCPU(cpu *scpu, t *sthread) {
	l := t.lwp
	if t.bound {
		// The dedicated LWP sleeps with its thread.
		s.sc.Unlink(cpu, l)
		return
	}
	cpu.Epoch++
	l.thread = nil
	t.lwp = nil
	s.sc.NextThread(cpu, l)
}

// exitThread finalizes a simulated thread.
func (s *sim) exitThread(cpu *scpu, t *sthread) {
	// Place the exit event if the thread ended on a thr_exit record.
	if r := t.rec(); r != nil && r.Call == trace.CallThrExit && s.tb != nil {
		s.tb.AddEventH(t.tlh, trace.PlacedEvent{
			Event: t.beforeEv,
			CPU:   int32(t.lastCPU),
			Start: t.beforeEv.Time,
			End:   s.now,
		})
	}
	s.endTimeline(t)
	t.state = tZombie
	s.live--

	joined := false
	for ji := s.popQ(&t.joinQ); ji != nilIdx; ji = s.popQ(&t.joinQ) {
		j := &s.threads[ji]
		j.joinedID = t.id()
		s.wake(j, t.lastCPU, true)
		joined = true
	}
	if !joined && !s.anyJoinQ.empty() {
		j := &s.threads[s.popQ(&s.anyJoinQ)]
		j.joinedID = t.id()
		s.wake(j, t.lastCPU, true)
		joined = true
	}
	if joined {
		t.reaped = true
	} else {
		s.pushQ(&s.zombieQ, t.ti)
	}

	l := t.lwp
	t.lwp = nil
	cpu.Epoch++
	if l != nil {
		if l.dedicated {
			l.dead = true
			s.sc.Unlink(cpu, l)
		} else {
			l.thread = nil
			s.sc.NextThread(cpu, l)
		}
	}
}
