// Package recorder implements the VPPB Recorder: the instrumented
// encapsulating thread library of the paper's figure 1. Attached as a hook
// between a program and the thread library (our threadlib kernel), it
// records, for every library call, the calling thread, the routine, the
// wall-clock time at 1 microsecond resolution, the object concerned, the
// outcome, and the source line — keeping everything in memory until the
// program terminates, exactly as the paper prescribes to minimize
// intrusion (and in contrast to TNF's overwritable circular buffer,
// section 6).
//
// The produced trace.Log is the "recorded information" (artifact (d))
// consumed by the Simulator in internal/core.
package recorder

import (
	"fmt"
	"os"

	"vppb/internal/threadlib"
	"vppb/internal/trace"
	"vppb/internal/vtime"
)

// Recorder collects the probe stream of one monitored execution. It
// implements threadlib.Hook.
type Recorder struct {
	program   string
	probeCost vtime.Duration
	events    []trace.Event
	threads   []trace.ThreadInfo
	objects   []trace.ObjectInfo
	finished  bool
	end       vtime.Time
}

var _ threadlib.Hook = (*Recorder)(nil)

// New creates a Recorder for a program name. probeCost is recorded in the
// log header so consumers can deduct the intrusion.
func New(program string, probeCost vtime.Duration) *Recorder {
	return &Recorder{program: program, probeCost: probeCost}
}

// HandleEvent buffers one probe firing.
func (r *Recorder) HandleEvent(ev trace.Event) {
	r.events = append(r.events, ev)
	if ev.Time > r.end {
		r.end = ev.Time
	}
}

// HandleThread buffers a thread-table entry.
func (r *Recorder) HandleThread(info trace.ThreadInfo) {
	r.threads = append(r.threads, info)
}

// HandleObject buffers an object-table entry.
func (r *Recorder) HandleObject(info trace.ObjectInfo) {
	r.objects = append(r.objects, info)
}

// Finish seals the recording at the program's end time and returns the
// log. Calling Finish twice returns the same log.
func (r *Recorder) Finish(end vtime.Time) *trace.Log {
	r.finished = true
	if end > r.end {
		r.end = end
	}
	return &trace.Log{
		Header: trace.Header{
			Program:   r.program,
			CPUs:      1,
			LWPs:      1,
			ProbeCost: r.probeCost,
			Start:     0,
			End:       r.end,
		},
		Threads: r.threads,
		Objects: r.objects,
		Events:  r.events,
	}
}

// Options configures a monitored execution.
type Options struct {
	// Program names the recording; defaults to "program".
	Program string
	// Costs overrides the substrate cost model (nil = defaults).
	Costs *threadlib.CostModel
	// Policy selects the scheduling discipline of the monitored machine
	// (internal/sched registry name; empty = default Solaris TS class).
	Policy string
	// MaxOpsWithoutProgress forwards the livelock guard setting.
	MaxOpsWithoutProgress int
	// MaxDuration forwards the virtual-time watchdog.
	MaxDuration vtime.Duration
}

// Setup is the program under measurement: it may create synchronization
// objects on the process and must return the main-thread body.
type Setup func(p *threadlib.Process) func(*threadlib.Thread)

// Record performs a full monitored uni-processor execution of a program:
// one CPU, one LWP, probes attached — the Recorder's required environment
// (paper sections 2 and 6). It returns the recorded log and the run result.
func Record(setup Setup, opts Options) (*trace.Log, *threadlib.Result, error) {
	if setup == nil {
		return nil, nil, fmt.Errorf("recorder: nil program setup")
	}
	if opts.Program == "" {
		opts.Program = "program"
	}
	costs := opts.Costs
	if costs == nil {
		def := threadlib.DefaultCosts()
		costs = &def
	}
	rec := New(opts.Program, costs.Probe)
	proc := threadlib.NewProcess(threadlib.Config{
		Program:               opts.Program,
		CPUs:                  1,
		LWPs:                  1,
		Policy:                opts.Policy,
		Costs:                 costs,
		Hook:                  rec,
		MaxOpsWithoutProgress: opts.MaxOpsWithoutProgress,
		MaxDuration:           opts.MaxDuration,
	})
	main := setup(proc)
	res, err := proc.Run(main)
	if err != nil {
		return nil, nil, fmt.Errorf("recorder: monitored execution failed: %w", err)
	}
	log := rec.Finish(vtime.Time(0).Add(res.Duration))
	if err := log.Validate(); err != nil {
		return nil, nil, fmt.Errorf("recorder: produced invalid log: %w", err)
	}
	return log, res, nil
}

// WriteFile stores a log at path, in binary format if the name ends in
// ".bin", text otherwise. Text logs stream record by record, so a large
// log is never materialized in memory on the way out.
func WriteFile(path string, log *trace.Log) error {
	if isBinaryPath(path) {
		data := trace.AppendBinary(nil, log)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("recorder: %w", err)
		}
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("recorder: %w", err)
	}
	if err := trace.WriteText(f, log); err != nil {
		f.Close()
		return fmt.Errorf("recorder: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("recorder: %w", err)
	}
	return nil
}

// ReadFile loads a log written by WriteFile, auto-detecting the format.
func ReadFile(path string) (*trace.Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	return trace.Decode(data)
}

func isBinaryPath(path string) bool {
	return len(path) > 4 && path[len(path)-4:] == ".bin"
}
