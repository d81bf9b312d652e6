package sched

import "vppb/internal/vtime"

// The Core is generic over the engines' own thread/LWP/CPU types: the
// recording kernel schedules live goroutine-backed threads, the Simulator
// schedules trace records, and neither pays an interface allocation per
// entity. The three type parameters reference each other, so the
// constraint interfaces are parameterized the same way.

// LWPNode is the scheduler-owned state embedded in each engine's LWP
// struct.
type LWPNode struct {
	ID          int
	Prio        int
	QuantumLeft vtime.Duration
	// SliceEpoch invalidates pending slice-expiry events: the engine
	// stamps each armed event with the current epoch and drops the event
	// on mismatch.
	SliceEpoch uint64
}

// CPUNode is the scheduler-owned state embedded in each engine's CPU
// struct.
type CPUNode struct {
	ID int
	// Epoch invalidates pending burst events, same protocol as
	// LWPNode.SliceEpoch.
	Epoch uint64
}

// Thread is the scheduler's view of an engine thread.
type Thread[L any] interface {
	comparable
	SchedPrio() int
	SchedBound() bool
	SchedBoundCPU() int
	SchedLWP() L
	SetSchedLWP(L)
}

// LWP is the scheduler's view of an engine LWP.
type LWP[T, C any] interface {
	comparable
	Node() *LWPNode
	SchedThread() T
	SetSchedThread(T)
	SchedCPU() C
	SetSchedCPU(C)
}

// CPU is the scheduler's view of an engine CPU.
type CPU[L any] interface {
	comparable
	Node() *CPUNode
	SchedLWP() L
	SetSchedLWP(L)
}

// Engine receives the scheduling decisions the Core makes. The Core owns
// the queues and the who-runs-where choice; the engine owns time,
// events, costs and probes.
type Engine[T Thread[L], L LWP[T, C], C CPU[L]] interface {
	// Account charges elapsed virtual time on the CPU before a
	// scheduling decision changes what it runs.
	Account(cpu C)
	// Placed runs after the Core links l to a previously idle cpu: apply
	// dispatch overheads, mark the thread running, finish an off-CPU
	// completed call, and arm the burst and slice events.
	Placed(cpu C, l L)
	// Switched runs after the Core hands a still-linked pool LWP its
	// next thread (the run-to-next-thread path, no trip through the
	// kernel queue).
	Switched(cpu C, l L, next T)
	// Runnable marks a thread runnable on its LWP l, just before the
	// Core requeues l on the kernel queue.
	Runnable(t T, l L)
	// Parked marks a thread runnable but LWP-less, just before the Core
	// pushes it on the user run queue.
	Parked(t T)
}

// Core is the shared two-level scheduler state machine: the user run
// queue (threads waiting for an LWP), the kernel queue (LWPs waiting for
// a CPU), the idle-LWP pool, and the policy-driven dispatch, preemption
// and time-slice rules.
type Core[T Thread[L], L LWP[T, C], C CPU[L]] struct {
	policy    Policy
	engine    Engine[T, L, C]
	cpus      []C
	noPreempt bool

	userRunQ []T
	kernelQ  []L
	idleLWPs []L

	// dispatchDirty and preemptDirty record whether any state change since
	// the last DispatchAll / PreemptPass could possibly let the pass do
	// work. The engines call both passes after every simulated event; on
	// stale or no-op events (the common case in a contended replay) the
	// flags turn the O(CPUs) and O(kernelQ x CPUs) scans into a single
	// branch. A dispatch opportunity requires a kernel-queue insertion or
	// a CPU going idle; a preemption opportunity requires a kernel-queue
	// insertion or a running LWP's priority drop (every policy's
	// ShouldPreempt(q, r) implies Precedes(q, r), so a placement taken
	// best-first from the queue can never itself be preemptable by what
	// remains queued).
	dispatchDirty bool
	preemptDirty  bool

	// idleCPUs counts CPUs with no linked LWP. All link changes funnel
	// through Core (dispatch placement, Unlink, NextThread's idle branch),
	// so the count is exact and DispatchAll can skip its CPU scan outright
	// while every CPU is busy — the steady state of a contended replay.
	idleCPUs int

	// OnPushKernelQ, when non-nil, runs before every kernel-queue
	// insertion — the engines' debug-invariant hook.
	OnPushKernelQ func(L)

	// OnSliceInvalidated, when non-nil, runs whenever a running LWP's
	// slice epoch advances outside ArmSlice (it leaves its CPU), so an
	// engine keeping its own timer bookkeeping can disarm eagerly instead
	// of re-validating epochs on every delivery.
	OnSliceInvalidated func(L)
}

// NewCore builds a scheduler over the given CPUs. hint preallocates the
// queues (the Simulator knows its thread count up front).
func NewCore[T Thread[L], L LWP[T, C], C CPU[L]](policy Policy, engine Engine[T, L, C], cpus []C, noPreemption bool, hint int) *Core[T, L, C] {
	return &Core[T, L, C]{
		policy:        policy,
		engine:        engine,
		cpus:          cpus,
		noPreempt:     noPreemption,
		userRunQ:      make([]T, 0, hint),
		kernelQ:       make([]L, 0, hint),
		idleLWPs:      make([]L, 0, hint),
		dispatchDirty: true,
		preemptDirty:  true,
		idleCPUs:      len(cpus),
	}
}

// Policy returns the active scheduling policy.
func (c *Core[T, L, C]) Policy() Policy { return c.policy }

// Quantum is the policy's time slice at priority p.
func (c *Core[T, L, C]) Quantum(p int) vtime.Duration { return c.policy.Quantum(p) }

// KernelQ exposes the kernel queue for invariant checks. Read-only.
func (c *Core[T, L, C]) KernelQ() []L { return c.kernelQ }

// UserRunQ exposes the user run queue for invariant checks. Read-only.
func (c *Core[T, L, C]) UserRunQ() []T { return c.userRunQ }

// IdleLWPs exposes the idle pool for invariant checks. Read-only.
func (c *Core[T, L, C]) IdleLWPs() []L { return c.idleLWPs }

// AddIdleLWP parks a fresh pool LWP on the idle list.
func (c *Core[T, L, C]) AddIdleLWP(l L) { c.idleLWPs = append(c.idleLWPs, l) }

// ---- queues ---------------------------------------------------------------

// PushUserRunQ inserts a runnable LWP-less thread in policy order, FIFO
// within a priority.
func (c *Core[T, L, C]) PushUserRunQ(t T) {
	i := len(c.userRunQ)
	for i > 0 && c.policy.Precedes(t.SchedPrio(), c.userRunQ[i-1].SchedPrio()) {
		i--
	}
	var zero T
	c.userRunQ = append(c.userRunQ, zero)
	copy(c.userRunQ[i+1:], c.userRunQ[i:])
	c.userRunQ[i] = t
}

// PopUserRunQ removes and returns the best queued thread, or the zero
// value. The pop copies down rather than re-slicing from the front: a
// front re-slice slides the live window along the backing array, forcing
// a fresh allocation every cap-many pushes in steady state.
func (c *Core[T, L, C]) PopUserRunQ() T {
	if len(c.userRunQ) == 0 {
		var zero T
		return zero
	}
	t := c.userRunQ[0]
	n := copy(c.userRunQ, c.userRunQ[1:])
	var zero T
	c.userRunQ[n] = zero
	c.userRunQ = c.userRunQ[:n]
	return t
}

// RemoveUserRunQ unqueues a specific thread; false if it was not queued.
func (c *Core[T, L, C]) RemoveUserRunQ(t T) bool {
	for i, q := range c.userRunQ {
		if q == t {
			c.userRunQ = append(c.userRunQ[:i], c.userRunQ[i+1:]...)
			return true
		}
	}
	return false
}

// PushKernelQ inserts a runnable LWP in policy order, FIFO within a
// priority.
func (c *Core[T, L, C]) PushKernelQ(l L) {
	if c.OnPushKernelQ != nil {
		c.OnPushKernelQ(l)
	}
	c.dispatchDirty = true
	c.preemptDirty = true
	i := len(c.kernelQ)
	for i > 0 && c.policy.Precedes(l.Node().Prio, c.kernelQ[i-1].Node().Prio) {
		i--
	}
	var zero L
	c.kernelQ = append(c.kernelQ, zero)
	copy(c.kernelQ[i+1:], c.kernelQ[i:])
	c.kernelQ[i] = l
}

// RemoveKernelQ unqueues a specific LWP; false if it was not queued.
func (c *Core[T, L, C]) RemoveKernelQ(l L) bool {
	for i, q := range c.kernelQ {
		if q == l {
			c.kernelQ = append(c.kernelQ[:i], c.kernelQ[i+1:]...)
			return true
		}
	}
	return false
}

// eligible reports whether the LWP may run on the CPU (bound-thread CPU
// affinity).
func (c *Core[T, L, C]) eligible(cpu C, l L) bool {
	t := l.SchedThread()
	var zero T
	return t == zero || t.SchedBoundCPU() < 0 || t.SchedBoundCPU() == cpu.Node().ID
}

// takeKernelQ removes and returns the best LWP runnable on cpu.
func (c *Core[T, L, C]) takeKernelQ(cpu C) (L, bool) {
	for i, l := range c.kernelQ {
		if c.eligible(cpu, l) {
			c.kernelQ = append(c.kernelQ[:i], c.kernelQ[i+1:]...)
			return l, true
		}
	}
	var zero L
	return zero, false
}

// peekKernelQ reports the priority of the best LWP runnable on cpu.
func (c *Core[T, L, C]) peekKernelQ(cpu C) (int, bool) {
	for _, l := range c.kernelQ {
		if c.eligible(cpu, l) {
			return l.Node().Prio, true
		}
	}
	return 0, false
}

// ---- scheduling -----------------------------------------------------------

// Wake makes a (non-suspended) thread runnable: requeue its dedicated
// LWP, attach an idle pool LWP, or park it on the user run queue. boost
// applies the policy's sleep-return priority lift.
func (c *Core[T, L, C]) Wake(t T, boost bool) {
	if t.SchedBound() {
		l := t.SchedLWP()
		c.refreshWake(l, boost)
		c.engine.Runnable(t, l)
		c.PushKernelQ(l)
		return
	}
	if len(c.idleLWPs) > 0 {
		// FIFO, with the same copy-down pop as PopUserRunQ: the oldest
		// idle LWP is reused first (LIFO would change LWP assignment and
		// with it recorded LWP ids), and the backing array never slides.
		l := c.idleLWPs[0]
		n := copy(c.idleLWPs, c.idleLWPs[1:])
		var zeroL L
		c.idleLWPs[n] = zeroL
		c.idleLWPs = c.idleLWPs[:n]
		l.SetSchedThread(t)
		t.SetSchedLWP(l)
		c.refreshWake(l, boost)
		c.engine.Runnable(t, l)
		c.PushKernelQ(l)
		return
	}
	c.engine.Parked(t)
	c.PushUserRunQ(t)
}

// refreshWake applies the wake boost and grants a fresh quantum.
func (c *Core[T, L, C]) refreshWake(l L, boost bool) {
	n := l.Node()
	if boost {
		n.Prio = c.policy.OnWake(n.Prio)
	}
	n.QuantumLeft = c.policy.Quantum(n.Prio)
}

// Unlink detaches an LWP from its CPU and invalidates both pending event
// streams — the CPU's burst epoch and the LWP's slice epoch. Every
// requeue or park of a running LWP funnels through here.
func (c *Core[T, L, C]) Unlink(cpu C, l L) {
	c.dispatchDirty = true // the CPU goes idle
	c.idleCPUs++
	cpu.Node().Epoch++
	l.Node().SliceEpoch++
	if c.OnSliceInvalidated != nil {
		c.OnSliceInvalidated(l)
	}
	var zeroL L
	var zeroC C
	cpu.SetSchedLWP(zeroL)
	l.SetSchedCPU(zeroC)
}

// Undispatch evicts the running LWP from a CPU, preserving its thread's
// progress, and requeues it on the kernel queue.
func (c *Core[T, L, C]) Undispatch(cpu C) {
	c.engine.Account(cpu)
	l := cpu.SchedLWP()
	var zeroL L
	if l == zeroL {
		return
	}
	t := l.SchedThread()
	c.Unlink(cpu, l)
	var zeroT T
	if t != zeroT {
		c.engine.Runnable(t, l)
	}
	c.PushKernelQ(l)
}

// DispatchAll assigns runnable LWPs to idle CPUs until no assignment is
// possible, invoking the engine's Placed hook for each.
func (c *Core[T, L, C]) DispatchAll() {
	if !c.dispatchDirty {
		return
	}
	var zeroL L
	for {
		// DispatchAll runs after every simulated event; an empty kernel
		// queue or a fully busy machine (the two common steady states) must
		// cost nothing. Clearing the flag on exit is sound because the loop
		// runs to quiescence: any insertion or CPU release a Placed hook
		// triggers mid-pass is observed by the final no-progress scan, and
		// every future CPU release re-sets the flag.
		if len(c.kernelQ) == 0 || c.idleCPUs == 0 {
			c.dispatchDirty = false
			return
		}
		progress := false
		for _, cpu := range c.cpus {
			if cpu.SchedLWP() != zeroL {
				continue
			}
			l, ok := c.takeKernelQ(cpu)
			if !ok {
				continue
			}
			cpu.SetSchedLWP(l)
			l.SetSchedCPU(cpu)
			c.idleCPUs--
			c.engine.Placed(cpu, l)
			progress = true
		}
		if !progress {
			c.dispatchDirty = false
			return
		}
	}
}

// PreemptPass runs after each event: as long as a queued LWP may preempt
// a running one on an eligible CPU (per the policy), evict the victim
// with the lowest priority and re-dispatch. Preemption happens only at
// event boundaries, never in the middle of an operation.
func (c *Core[T, L, C]) PreemptPass() {
	if c.noPreempt || !c.preemptDirty {
		return
	}
	var zeroL L
	var zeroC C
	for {
		if len(c.kernelQ) == 0 {
			c.preemptDirty = false
			return
		}
		preempted := false
		for _, l := range c.kernelQ {
			victim := zeroC
			for _, cpu := range c.cpus {
				rl := cpu.SchedLWP()
				if !c.eligible(cpu, l) || rl == zeroL {
					continue
				}
				if c.policy.ShouldPreempt(l.Node().Prio, rl.Node().Prio) &&
					(victim == zeroC || rl.Node().Prio < victim.SchedLWP().Node().Prio) {
					victim = cpu
				}
			}
			if victim != zeroC {
				c.Undispatch(victim)
				c.DispatchAll()
				preempted = true
				break
			}
		}
		if !preempted {
			// Quiescent: the scan just proved no queued LWP can preempt
			// any runner, so the pass stays a no-op until the next
			// insertion or priority drop sets the flag again.
			c.preemptDirty = false
			return
		}
	}
}

// NextThread hands a pool LWP — still linked to cpu — its next queued
// unbound thread via the engine's Switched hook, or unlinks and idles
// it. This is the fast run-to-next-thread path that skips the kernel
// queue.
func (c *Core[T, L, C]) NextThread(cpu C, l L) {
	next := c.PopUserRunQ()
	var zeroT T
	if next == zeroT {
		// No cpu-epoch bump here: the caller already invalidated the
		// burst stream when it detached the previous thread.
		c.dispatchDirty = true // the CPU goes idle
		c.idleCPUs++
		l.Node().SliceEpoch++
		if c.OnSliceInvalidated != nil {
			c.OnSliceInvalidated(l)
		}
		var zeroL L
		var zeroC C
		l.SetSchedCPU(zeroC)
		cpu.SetSchedLWP(zeroL)
		c.idleLWPs = append(c.idleLWPs, l)
		return
	}
	l.SetSchedThread(next)
	next.SetSchedLWP(l)
	c.engine.Switched(cpu, l, next)
}

// ReassignOrIdle gives a free, unqueued pool LWP its next queued unbound
// thread (requeuing the LWP on the kernel queue) or parks it on the idle
// list.
func (c *Core[T, L, C]) ReassignOrIdle(l L) {
	next := c.PopUserRunQ()
	var zeroT T
	if next == zeroT {
		c.idleLWPs = append(c.idleLWPs, l)
		return
	}
	l.SetSchedThread(next)
	next.SetSchedLWP(l)
	c.PushKernelQ(l)
}

// ArmSlice advances the LWP's slice epoch (invalidating any pending
// slice event), refills an exhausted quantum from the policy, and
// returns the delay and epoch for the engine's timer event. ok is false
// when the policy disables time slicing — then no event is armed and the
// LWP runs to block.
func (c *Core[T, L, C]) ArmSlice(l L) (delay vtime.Duration, epoch uint64, ok bool) {
	n := l.Node()
	n.SliceEpoch++
	if n.QuantumLeft <= 0 {
		n.QuantumLeft = c.policy.Quantum(n.Prio)
	}
	if n.QuantumLeft <= 0 {
		return 0, n.SliceEpoch, false
	}
	return n.QuantumLeft, n.SliceEpoch, true
}

// SliceExpired applies the policy's quantum-expiry rules to a running
// LWP. It returns true when the LWP yielded the CPU (the engine must not
// re-arm its slice event) and false when it keeps running (the engine
// re-arms via ArmSlice).
func (c *Core[T, L, C]) SliceExpired(l L) bool {
	cpu := l.SchedCPU()
	c.engine.Account(cpu)
	waiting, has := c.peekKernelQ(cpu)
	n := l.Node()
	newPrio, yield := c.policy.OnSliceExpiry(n.Prio, waiting, has)
	if newPrio < n.Prio {
		// A running LWP's priority dropped: queued LWPs may now preempt it.
		c.preemptDirty = true
	}
	n.Prio = newPrio
	n.QuantumLeft = c.policy.Quantum(newPrio)
	if yield {
		c.Undispatch(cpu)
		return true
	}
	return false
}
