package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"time"

	"vppb/internal/core"
	"vppb/internal/recorder"
	"vppb/internal/sched"
	"vppb/internal/serve"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// kind is one input class of a workload's traffic: which program is
// recorded, at which thread count, how it is encoded, and how many of
// every period's operations use it. A fixed count per period keeps each
// class's share of the traffic identical in every run and every window,
// so the latency percentiles stay inside the class the mix puts them in.
// The thread count is fixed per class for the same reason: it sets a
// recording's size, and so its latency.
type kind struct {
	program   string
	threads   int
	binary    bool
	truncated bool // text body cut by lines; the daemon must repair it
	count     int  // operations of this kind per period
}

// spec is one workload: its traffic classes and the topology serving it.
type spec struct {
	name         string
	nodes        int
	cacheEntries int
	kinds        []kind
	poolPerKind  int // distinct seeded recordings per kind
	// grids and policies are the query keys of warm-repeat requests.
	grids    []string
	policies []string
	// skew is the weight ratio between successive choices of a key
	// component (1 = uniform); warm-repeat uses it so keys recur.
	skew float64
	// session makes every operation a whole analysis session.
	session bool
}

var specs = map[string]*spec{
	// Every body is new to the daemon: digest, decode, validate, repair
	// and profile run on every request. Latency classes: waterspatial
	// (70%, holds p50), truncated prodcons (10%), ocean@8 text (20%,
	// holds p90).
	"cold-upload": {
		name:         "cold-upload",
		nodes:        1,
		cacheEntries: 40, // four periods, so the end-of-run contents vary little
		poolPerKind:  2,
		kinds: []kind{
			{program: "waterspatial", threads: 8, count: 4},
			{program: "waterspatial", threads: 8, binary: true, count: 3},
			{program: "prodcons", threads: 4, truncated: true, count: 1},
			{program: "ocean", threads: 8, count: 2},
		},
	},
	// Repeated by-digest predictions against a 3-node ring: ingest does
	// no work, the simulator, the JSON encode and the proxy hop do.
	// Latency classes: waterspatial (80%, holds p50 inside its dense
	// body, below the tail of requests that overlap a prodcons one),
	// prodcons (20%, holds p90).
	"warm-repeat": {
		name:        "warm-repeat",
		nodes:       3,
		poolPerKind: 3,
		kinds: []kind{
			{program: "waterspatial", threads: 8, count: 7},
			{program: "waterspatial", threads: 8, binary: true, count: 1},
			{program: "prodcons", threads: 4, count: 2},
		},
		grids:    []string{"1,2,4,8", "2,4,8,16", "1,3,6,12"},
		policies: []string{"ts", "fifo", "rr"},
		skew:     2,
	},
	// Whole analysis sessions on fresh traces: hb, optimize and viz.
	// Latency classes: waterspatial (80%, holds p50 inside its dense
	// body), prodcons (20%, holds p90). Truncated bodies are prodcons
	// because almost no cut of a barrier-synchronized program replays
	// once repaired.
	"session": {
		name:         "session",
		nodes:        1,
		cacheEntries: 20,
		session:      true,
		poolPerKind:  2,
		kinds: []kind{
			{program: "waterspatial", threads: 4, count: 6},
			{program: "waterspatial", threads: 4, binary: true, count: 2},
			{program: "prodcons", threads: 4, count: 1},
			{program: "prodcons", threads: 4, truncated: true, count: 1},
		},
	},
}

// base is one seeded recording with its encoding. Every body sent to a
// daemon is a base's bytes with the program name replaced by a unique
// tag: the name is the first field of both encodings, so a body is a
// short prefix plus the base's shared tail, and no two bodies of a run
// have the same digest.
type base struct {
	kind    int
	program string // unique base name written into the recording
	binary  bool
	trunc   bool
	tail    []byte // encoding after the program name
}

// body is the bytes of one upload: a program-name prefix and a base tail.
type body struct {
	base   int
	tag    string
	prefix []byte
	tail   []byte
}

func (b body) size() int64 { return int64(len(b.prefix) + len(b.tail)) }

func (b body) reader() io.Reader {
	return io.MultiReader(bytes.NewReader(b.prefix), bytes.NewReader(b.tail))
}

func (b body) bytes() []byte {
	return append(append(make([]byte, 0, b.size()), b.prefix...), b.tail...)
}

// op is one operation of the request sequence.
type op struct {
	index   int
	node    int  // node the client sends to
	body    body // cold-upload and session: the upload; warm-repeat: the working-set base
	session bool
	// warm-repeat query: a working-set digest, a CPU grid and a policy
	trace  string
	cpus   string
	policy string
}

// plan is a workload's seeded input: the recorded bases and the request
// sequence, which is a pure function of (workload, seed, index).
type plan struct {
	spec    *spec
	seed    int64
	bases   []*base
	pool    [][]int  // kind -> base indices
	pattern []int    // kind of each position in a period
	digests []string // warm-repeat: the working set's content addresses
	// recordEvents and recordTime total the recorder's work on the bases.
	recordEvents int
	recordTime   time.Duration
}

func newPlan(sp *spec, seed int64) (*plan, error) {
	p := &plan{spec: sp, seed: seed, pool: make([][]int, len(sp.kinds))}
	rng := rand.New(rand.NewSource(mix(seed, -1)))
	for ki, k := range sp.kinds {
		for j := 0; j < sp.poolPerKind; j++ {
			b, err := p.record(ki, k, len(p.bases), rng)
			if err != nil {
				return nil, err
			}
			p.pool[ki] = append(p.pool[ki], len(p.bases))
			p.bases = append(p.bases, b)
		}
	}
	p.pattern = interleave(sp.kinds, rng.Intn(1<<30))
	if sp.grids != nil {
		for bi := range p.bases {
			p.digests = append(p.digests, p.baseBody(bi).digest())
		}
	}
	return p, nil
}

// record makes one base: a monitored run of the kind's program at a
// seeded Scale, which makes the bytes of every base distinct, encoded as
// the kind asks.
func (p *plan) record(ki int, k kind, idx int, rng *rand.Rand) (*base, error) {
	w, err := workloads.Get(k.program)
	if err != nil {
		return nil, err
	}
	b := &base{
		kind:    ki,
		program: fmt.Sprintf("%s.s%d.b%d", k.program, p.seed, idx),
		binary:  k.binary,
		trunc:   k.truncated,
	}
	scale := 0.8 + 0.4*rng.Float64()
	t0 := time.Now()
	log, _, err := recorder.Record(w.Bind(workloads.Params{Threads: k.threads, Scale: scale}),
		recorder.Options{Program: b.program})
	if err != nil {
		return nil, err
	}
	p.recordTime += time.Since(t0)
	p.recordEvents += len(log.Events)
	switch {
	case k.binary:
		b.tail = trace.AppendBinary(nil, log)[len(binaryPrefix(b.program)):]
	case k.truncated:
		short, err := truncate(log, 0.85+0.1*rng.Float64())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.program, err)
		}
		b.tail = trace.AppendText(nil, short)[len(textPrefix(b.program)):]
	default:
		b.tail = trace.AppendText(nil, log)[len(textPrefix(b.program)):]
	}
	return b, nil
}

// truncate cuts the log by lines, right after a BEFORE whose AFTER is
// lost, at or after the given fraction of its events: Validate fails and
// the daemon must repair. A cut can leave a lock held by a thread whose
// events stop, and replaying such a log deadlocks, which the daemon
// rightly answers with 422; so the cut moves on until the repaired log
// replays under every policy and CPU count the workloads request. The
// body stays close to full size, in its class's latency range.
func truncate(log *trace.Log, frac float64) (*trace.Log, error) {
	for cut := int(float64(len(log.Events)) * frac); cut < len(log.Events)-1; cut++ {
		if !opensCall(log.Events[cut]) {
			continue
		}
		short := *log
		short.Events = log.Events[:cut+1]
		if replayable(&short) {
			return &short, nil
		}
	}
	return nil, fmt.Errorf("no truncation point replays after repair")
}

// replayable reports whether the daemon would repair the log and then
// replay it on every machine a workload asks for.
func replayable(log *trace.Log) bool {
	if log.Validate() == nil {
		return false
	}
	repaired, _, err := trace.Repair(log)
	if err != nil {
		return false
	}
	prof, err := trace.BuildProfile(repaired)
	if err != nil {
		return false
	}
	// Most bad cuts already deadlock the uniprocessor replay.
	if _, err := core.SimulateProfile(prof, core.Machine{DiscardTimeline: true}); err != nil {
		return false
	}
	var ms []core.Machine
	for _, policy := range sched.Names() {
		for _, cpus := range []int{1, 2, 4, 8} {
			ms = append(ms, core.Machine{Policy: policy, CPUs: cpus, DiscardTimeline: true})
		}
	}
	_, err = core.SimulateMany(prof, ms)
	return err == nil
}

// interleave orders one period of kinds by smooth weighted round robin,
// rotated by offset: each kind's operations are spread evenly, so the
// two clients, which run neighbouring operations at the same time, meet
// the same pairs of classes in every run whatever the seed.
func interleave(kinds []kind, offset int) []int {
	total := 0
	for _, k := range kinds {
		total += k.count
	}
	cur := make([]int, len(kinds))
	pattern := make([]int, 0, total)
	for len(pattern) < total {
		best := 0
		for ki, k := range kinds {
			cur[ki] += k.count
			if cur[ki] > cur[best] {
				best = ki
			}
		}
		cur[best] -= total
		pattern = append(pattern, best)
	}
	offset %= total
	return append(pattern[offset:], pattern[:offset]...)
}

// opensCall reports whether ev is a BEFORE that a later AFTER must close.
func opensCall(ev trace.Event) bool {
	if ev.Class != trace.Before {
		return false
	}
	switch ev.Call {
	case trace.CallThrExit, trace.CallStartCollect, trace.CallEndCollect:
		return false
	}
	return true
}

// textPrefix is the text encoding up to and including the program name.
func textPrefix(program string) []byte {
	enc := trace.AppendText(nil, &trace.Log{Header: trace.Header{Program: program}})
	return enc[:bytes.Index(enc, []byte("\ncpus "))]
}

// binaryPrefix is the binary encoding up to and including the program
// name: the magic, then the first (hence literal) string-table entry.
func binaryPrefix(program string) []byte {
	enc := trace.AppendBinary(nil, &trace.Log{Header: trace.Header{Program: program}})
	n := len("VPPBLOG1") + 1 // magic, then uvarint(0) marking a literal
	n += binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(len(program)))
	return enc[:n+len(program)]
}

// bodyFor gives base bi the program name tag.
func (p *plan) bodyFor(bi int, tag string) body {
	b := p.bases[bi]
	prefix := textPrefix(tag)
	if b.binary {
		prefix = binaryPrefix(tag)
	}
	return body{base: bi, tag: tag, prefix: prefix, tail: b.tail}
}

// baseBody is a base under its own name: the working set of warm-repeat.
func (p *plan) baseBody(bi int) body { return p.bodyFor(bi, p.bases[bi].program) }

// op returns operation i of the sequence. Negative indices are warm-up
// operations: same distribution, distinct bodies.
func (p *plan) op(i int) op {
	sp := p.spec
	rng := rand.New(rand.NewSource(mix(p.seed, int64(i))))
	ki := p.pattern[mod(i, len(p.pattern))]
	o := op{index: i, node: rng.Intn(sp.nodes), session: sp.session}
	pool := p.pool[ki]
	if sp.grids != nil {
		bi := pool[skewed(rng, len(pool), sp.skew)]
		o.body = p.baseBody(bi)
		o.trace = p.digests[bi]
		o.cpus = sp.grids[skewed(rng, len(sp.grids), sp.skew)]
		o.policy = sp.policies[skewed(rng, len(sp.policies), sp.skew)]
		return o
	}
	bi := pool[rng.Intn(len(pool))]
	o.body = p.bodyFor(bi, fmt.Sprintf("%s.s%d.op%d", sp.kinds[ki].program, p.seed, i))
	return o
}

// skewed draws from [0, n) with weight skew^-i for choice i.
func skewed(rng *rand.Rand, n int, skew float64) int {
	if skew <= 1 {
		return rng.Intn(n)
	}
	total, w := 0.0, 1.0
	for i := 0; i < n; i++ {
		total += w
		w /= skew
	}
	x := rng.Float64() * total
	w = 1.0
	for i := 0; i < n-1; i++ {
		if x < w {
			return i
		}
		x -= w
		w /= skew
	}
	return n - 1
}

// mix derives an independent stream seed from the run seed and an index.
func mix(seed, i int64) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return int64(h >> 1)
}

func mod(i, n int) int { return ((i % n) + n) % n }

// digest is the content address the daemon computes for b.
func (b body) digest() string { return serve.Digest(b.bytes()) }
