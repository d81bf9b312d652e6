// Command perfbench is the repository's benchmark. It drives one seeded
// workload against in-process vppb-serve nodes over loopback HTTP with a
// closed loop of two clients, checks every response against references
// computed in-process, and prints the metrics as one JSON line.
//
//	perfbench --workload cold-upload|warm-repeat|session --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it also replays the same request sequence on fresh nodes
// while calling each layer's public functions from its own code, and
// reports per-layer costs from the spans of that traced run. DESIGN.md
// next to this file explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"vppb/internal/experiments"
)

const (
	clients     = 2 // closed-loop callers, one per CPU of the reference host
	setupRounds = 5 // set-ups per run; setup_s is their median
	minOps      = 100
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold-upload | warm-repeat | session")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload cold-upload|warm-repeat|session, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	out, err := bench(sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one timed closed-loop run with what was measured around it.
type phase struct {
	results  []opResult
	logs     []*spanLog
	elapsed  time.Duration
	counters counters // /metrics deltas over the phase
	alloc    uint64   // TotalAlloc delta
	heapLive float64  // median live heap, bytes
	failed   int
}

func bench(sp *spec, seed int64, d time.Duration, traced bool, report io.Writer) (*result, error) {
	// Set-up: record and encode the inputs, start the nodes, warm up.
	// Repeated so that setup_s is a median; the last set-up is kept.
	var p *plan
	var ns *nodes
	var setups []float64
	for k := 0; k < setupRounds; k++ {
		if ns != nil {
			ns.close()
		}
		p, ns = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = newPlan(sp, seed); err != nil {
			return nil, err
		}
		if ns, err = startWarm(p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	chk := newChecker(p)
	// A traced run needs the untraced loop only to price the tracing, so
	// it runs it for half the time.
	plainFor := d
	if traced {
		plainFor = d / 2
	}
	plain, err := timed(p, ns, plainFor, nil)
	ns.close()
	if err != nil {
		return nil, err
	}
	check(chk, plain)
	res := &result{Correct: true, Attempted: len(plain.results), Failed: plain.failed, Metrics: map[string]metric{}}
	selfCheck(sp, plain, !traced, res, report)

	if !traced {
		t1, err := experiments.Table1(experiments.Options{Scale: 1})
		if err != nil {
			return nil, err
		}
		lats := opLatencies(plain)
		ok := float64(len(plain.results) - plain.failed)
		n := float64(len(plain.results))
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["throughput_rps"] = metric{ok / plain.elapsed.Seconds(), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{quantile(lats, 0.50), "ms"}
		res.Metrics["latency_p90_ms"] = metric{quantile(lats, 0.90), "ms"}
		res.Metrics["alloc_mb_per_req"] = metric{float64(plain.alloc) / 1e6 / n, "MB"}
		res.Metrics["heap_live_mb"] = metric{plain.heapLive / 1e6, "MB"}
		res.Metrics["table1_max_err_pct"] = metric{100 * t1.Table.MaxAbsError(), "%"}
		fmt.Fprintf(report, "%s seed %d: %d ops (%d failed) in %.2fs; latency p50 %.2f ms, p90 %.2f ms over %d samples; set-ups %v s\n",
			sp.name, seed, len(plain.results), plain.failed, plain.elapsed.Seconds(),
			quantile(lats, 0.5), quantile(lats, 0.9), len(lats), setups)
		classReport(report, p, plain)
		return res, nil
	}

	// Traced run: fresh nodes, the same set-up, the same request sequence,
	// each operation followed by the in-process replay of its layer calls.
	if ns, err = startWarm(p); err != nil {
		return nil, err
	}
	rp := &replayer{plan: p}
	primeLog := newSpanLog(time.Now())
	if sp.grids != nil {
		if err := rp.prime(primeLog); err != nil {
			ns.close()
			return nil, err
		}
	}
	var replayMu sync.Mutex
	var replayErr error
	tr, err := timed(p, ns, d, func(o op, l *spanLog, root int) {
		if err := rp.replay(o, l, root); err != nil {
			replayMu.Lock()
			if replayErr == nil {
				replayErr = fmt.Errorf("replay of op %d: %w", o.index, err)
			}
			replayMu.Unlock()
		}
	})
	ns.close()
	if err != nil {
		return nil, err
	}
	if replayErr != nil {
		return nil, replayErr
	}
	check(chk, tr)
	res.Attempted += len(tr.results)
	res.Failed += tr.failed
	selfCheck(sp, tr, false, res, report)
	logs := append([]*spanLog{primeLog}, tr.logs...)
	res.Metrics = layerMetrics(p, plain, tr, logs)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", sp.name, seed))
	if err := writeSpans(path, logs); err != nil {
		return nil, err
	}
	fmt.Fprintf(report, "%s seed %d traced: %d ops untraced, %d traced; spans in %s\n",
		sp.name, seed, len(plain.results), len(tr.results), path)
	return res, nil
}

// startWarm starts the workload's nodes and runs the warm-up pass: the
// working set upload for warm-repeat, then one period of operations with
// negative indices, whose bodies never recur in the timed sequence.
func startWarm(p *plan) (*nodes, error) {
	ns, err := startNodes(p.spec.nodes, p.spec.cacheEntries)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	if p.spec.grids != nil {
		for bi := range p.bases {
			b := p.baseBody(bi)
			u := "http://" + ns.addrs[bi%len(ns.addrs)] + "/v1/predict?" + url.Values{"cpus": {"1"}}.Encode()
			r, err := c.call(http.MethodPost, u, &b, false)
			if err == nil && r.status != http.StatusOK {
				err = fmt.Errorf("status %d", r.status)
			}
			if err != nil {
				ns.close()
				return nil, fmt.Errorf("uploading working set: %w", err)
			}
		}
	}
	for i := 1; i <= len(p.pattern); i++ {
		if r := runOp(c, ns.addrs, p.op(-i), nil, -1); r.err != nil {
			ns.close()
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return ns, nil
}

// timed runs the closed loop for d and measures the process around it.
func timed(p *plan, ns *nodes, d time.Duration, traced func(op, *spanLog, int)) (*phase, error) {
	scr := &http.Client{}
	defer scr.CloseIdleConnections()
	before, err := ns.scrape(scr)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := make(chan struct{})
	live := make(chan float64)
	go sampleLiveHeap(stop, live)
	ph := &phase{}
	ph.results, ph.logs, ph.elapsed = closedLoop(p, ns.addrs, clients, d, traced)
	close(stop)
	ph.heapLive = <-live
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	after, err := ns.scrape(scr)
	if err != nil {
		return nil, err
	}
	ph.counters = after.sub(before)
	return ph, nil
}

// sampleLiveHeap samples, until stop closes, the heap the latest GC
// cycle found live, and sends the median. GC cycles run every few
// operations, so the samples track what the caches and the requests in
// flight hold. A single snapshot at the end of the phase would swing by
// a whole cache entry with the order in which the last operations
// finished.
func sampleLiveHeap(stop <-chan struct{}, out chan<- float64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var xs []float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			metrics.Read(sample)
			xs = append(xs, float64(sample[0].Value.Uint64()))
		case <-stop:
			out <- median(xs)
			return
		}
	}
}

// check verifies every operation of a phase and counts failures.
func check(chk *checker, ph *phase) {
	shown := 0
	for i, r := range ph.results {
		if err := chk.check(r); err != nil {
			ph.results[i].failed = true
			ph.failed++
			if shown < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", r.op.index, err)
				shown++
			}
		}
	}
}

// selfCheck verifies, from the /metrics deltas, that the workload did
// what it is defined to do. A violation makes the run incorrect. The
// minimum operation count applies to phases that report percentiles.
func selfCheck(sp *spec, ph *phase, percentiles bool, res *result, report io.Writer) {
	c := ph.counters
	n := float64(len(ph.results))
	var bad []string
	if c.shed != 0 {
		bad = append(bad, fmt.Sprintf("%v requests shed", c.shed))
	}
	switch sp.name {
	case "cold-upload":
		if c.hits != 0 {
			bad = append(bad, fmt.Sprintf("cache hit ratio %.3f, want 0", c.hits/(c.hits+c.misses)))
		}
	case "warm-repeat":
		if c.misses != 0 {
			bad = append(bad, fmt.Sprintf("%v cache misses after warm-up, want 0", c.misses))
		}
		if f := c.forwarded / n; f < 0.5 || f > 0.8 {
			bad = append(bad, fmt.Sprintf("forwarded ratio %.3f outside [0.5, 0.8]", f))
		}
	}
	if percentiles && len(ph.results) < minOps {
		bad = append(bad, fmt.Sprintf("%d operations, want at least %d", len(ph.results), minOps))
	}
	for _, b := range bad {
		fmt.Fprintf(report, "self-check failed: %s\n", b)
		res.Correct = false
	}
	if ph.failed > 0 {
		res.Correct = false
	}
}

// classReport prints each traffic class's share and latency range, so a
// reader can see which class the percentiles fall in.
func classReport(w io.Writer, p *plan, ph *phase) {
	byKind := make([][]float64, len(p.spec.kinds))
	lats := opLatencies(ph)
	for i, r := range ph.results {
		k := p.bases[r.op.body.base].kind
		byKind[k] = append(byKind[k], lats[i])
	}
	for k, xs := range byKind {
		kd := p.spec.kinds[k]
		if len(xs) == 0 {
			continue
		}
		fmt.Fprintf(w, "  class %-12s threads %d binary=%-5v truncated=%-5v share %.3f  latency min %.2f p50 %.2f max %.2f ms\n",
			kd.program, kd.threads, kd.binary, kd.truncated, float64(len(xs))/float64(len(lats)),
			quantile(xs, 0), quantile(xs, 0.5), quantile(xs, 1))
	}
}

// opLatencies returns the phase's operation latencies in milliseconds. A
// failed operation misses any latency limit: it counts as lasting the
// whole phase.
func opLatencies(ph *phase) []float64 {
	out := make([]float64, len(ph.results))
	for i, r := range ph.results {
		lat := r.lat
		if r.failed {
			lat = ph.elapsed
		}
		out[i] = float64(lat) / float64(time.Millisecond)
	}
	return out
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
