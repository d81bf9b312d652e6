// Package progen generates small deterministic multithreaded programs
// for property tests: fork-join workers that mix compute, mutexes,
// trylocks, a semaphore, yields and an optional barrier. Core, analysis
// and other tests share one generator, so a seed names the same program
// everywhere.
package progen

import (
	"fmt"

	"vppb/internal/threadlib"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// rng is a tiny deterministic generator for program synthesis.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Program builds a random fork-join program with mutexes, semaphores
// and a barrier. All decisions derive from the seed, so the recording and
// every reference run execute identical logic.
func Program(seed uint64) func(p *threadlib.Process) func(*threadlib.Thread) {
	return func(p *threadlib.Process) func(*threadlib.Thread) {
		r := &rng{s: seed}
		nWorkers := 2 + r.intn(6)
		nMutexes := 1 + r.intn(3)
		mutexes := make([]*threadlib.Mutex, nMutexes)
		for i := range mutexes {
			mutexes[i] = p.NewMutex(fmt.Sprintf("m%d", i))
		}
		sem := p.NewSema("gate", r.intn(3))
		useBarrier := r.intn(2) == 0
		var barM *threadlib.Mutex
		var barCV *threadlib.Cond
		arrived, gen := 0, 0
		if useBarrier {
			barM = p.NewMutex("bar.m")
			barCV = p.NewCond("bar.cv")
		}
		barrier := func(w *threadlib.Thread) {
			barM.Lock(w)
			g := gen
			arrived++
			if arrived == nWorkers {
				arrived = 0
				gen++
				barCV.Broadcast(w)
			} else {
				for g == gen {
					barCV.Wait(w, barM)
				}
			}
			barM.Unlock(w)
		}

		// Pre-draw each worker's script so goroutine scheduling cannot
		// perturb the random stream.
		type step struct {
			kind   int // 0 compute, 1 lock, 2 sema wait, 3 sema post, 4 yield, 5 trylock
			arg    int
			amount vtime.Duration
			inside vtime.Duration
		}
		scripts := make([][]step, nWorkers)
		waits := 0
		for i := range scripts {
			n := 3 + r.intn(8)
			for k := 0; k < n; k++ {
				st := step{kind: r.intn(6)}
				st.arg = r.intn(nMutexes)
				st.amount = vtime.Duration(1+r.intn(20)) * vtime.Millisecond
				st.inside = vtime.Duration(1+r.intn(5)) * vtime.Millisecond
				if st.kind == 2 {
					waits++
				}
				scripts[i] = append(scripts[i], st)
			}
		}
		// Main pre-posts one token per wait so no circular wait chain can
		// form regardless of the workers' post/wait interleaving (worker
		// posts then only add slack).
		topUp := waits
		return func(main *threadlib.Thread) {
			main.SetConcurrency(nWorkers)
			for i := 0; i < topUp; i++ {
				sem.Post(main)
			}
			var ids []trace.ThreadID
			for i := 0; i < nWorkers; i++ {
				script := scripts[i]
				ids = append(ids, main.Create(func(w *threadlib.Thread) {
					for _, st := range script {
						switch st.kind {
						case 0:
							w.Compute(st.amount)
						case 1:
							m := mutexes[st.arg]
							m.Lock(w)
							w.Compute(st.inside)
							m.Unlock(w)
						case 2:
							sem.Wait(w)
						case 3:
							sem.Post(w)
						case 4:
							w.Compute(st.amount / 2)
							w.Yield()
						case 5:
							m := mutexes[st.arg]
							if m.TryLock(w) {
								w.Compute(st.inside)
								m.Unlock(w)
							} else {
								w.Compute(st.inside / 2)
							}
						}
					}
					if useBarrier {
						barrier(w)
					}
				}, threadlib.WithName(fmt.Sprintf("w%d", i))))
			}
			for _, id := range ids {
				main.Join(id)
			}
		}
	}
}
