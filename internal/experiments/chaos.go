package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"vppb/internal/chaoshttp"
	"vppb/internal/recorder"
	"vppb/internal/serve"
	"vppb/internal/serveclient"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// ChaosResult is the chaos soak: a vppb-serve daemon under seeded
// transport faults, injected handler panics, on-disk corruption, and
// more concurrency than its admission limit, driven entirely through the
// retrying client. Availability is the fraction of client calls that end
// in a served prediction despite everything.
type ChaosResult struct {
	Requests     int     `json:"requests"`
	Succeeded    int     `json:"succeeded"`
	Availability float64 `json:"availability"`
	// Shed counts 503 responses the clients absorbed by retrying
	// (admission control or a tripped breaker).
	Shed     int     `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
	// Retries counts client backoff sleeps; Uploads counts bodies sent
	// (first sends plus re-uploads after restarts or quarantines).
	Retries int `json:"retries"`
	Uploads int `json:"uploads"`
	// Injected faults, by class.
	Faults map[string]int64 `json:"faults"`
	// Server-side robustness counters after the soak.
	PanicsRecovered int64 `json:"panics_recovered"`
	ShedByServer    int64 `json:"shed_by_server"`
	Quarantined     int64 `json:"quarantined"`
	FaultedFromDisk int64 `json:"faulted_from_disk"`
	BreakerTrips    int64 `json:"breaker_trips"`
	// Client-observed latency percentiles, in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`

	Report string `json:"-"`
}

// chaos soak shape. The client pool is deliberately wider than the
// admission limit so the daemon must shed, and the cache is smaller than
// the trace set so requests keep faulting entries back in from disk.
const (
	chaosClients     = 8
	chaosMaxInflight = 3
	chaosCacheSize   = 2
	chaosTraces      = 3
)

// Chaos runs the seeded chaos soak against an in-process daemon:
// Runs*chaosClients requests per trace digest, issued by chaosClients
// concurrent retrying clients through a fault injector that drops
// connections, tears responses, injects latency and forces handler
// panics; halfway through, one durable-store object is bit-flipped in
// place to prove the corruption path (detect, quarantine, count,
// re-upload). The fault sequence is deterministic in the seed; the
// scheduling interleaving is not, so the result reports rates, not exact
// counts.
func Chaos(opts Options) (*ChaosResult, error) {
	opts = opts.normalized()

	// Three distinct digests: the same workload recorded at three problem
	// sizes (prodcons fixes its own thread count, so scale is what makes
	// the bytes — and therefore the content addresses — differ).
	w, err := workloads.Get("prodcons")
	if err != nil {
		return nil, err
	}
	var raws [][]byte
	for i := 0; i < chaosTraces; i++ {
		log, _, err := recorder.Record(
			w.Bind(workloads.Params{Threads: 4, Scale: opts.Scale * (1 - 0.25*float64(i))}),
			recorder.Options{Program: "prodcons"})
		if err != nil {
			return nil, err
		}
		raws = append(raws, trace.AppendText(nil, log))
	}

	storeDir, err := os.MkdirTemp("", "vppb-chaos-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)

	injector := chaoshttp.New(chaoshttp.Config{
		Seed:          int64(opts.Runs)*7919 + 1,
		DropProb:      0.05,
		TornProb:      0.05,
		LatencyProb:   0.10,
		LatencyAmount: 2 * time.Millisecond,
		PanicProb:     0.03,
	})
	srv, err := serve.New(serve.Config{
		StoreDir:     storeDir,
		CacheEntries: chaosCacheSize,
		MaxInflight:  chaosMaxInflight,
		// A short admission queue absorbs arrival bursts; anything beyond
		// it sheds. Shedding is the behavior under test, so keep the queue
		// well under one request's service time, which one-pass ingest
		// has cut to a few milliseconds.
		AdmissionWait: 2 * time.Millisecond,
		Middleware:    injector.Inner,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(injector.Outer(srv.Handler()))
	defer ts.Close()

	// Each client jitters independently. Sleeps are compressed 5x so
	// Retry-After: 1 costs 200ms of soak time, and the attempt budget is
	// deliberately deep: the soak is a closed loop with more clients than
	// slots, so a client may legitimately be shed for many rounds before a
	// slot frees up — especially on slow machines (or under the race
	// detector), where one simulation's service time dwarfs the compressed
	// backoff. A production caller honoring Retry-After behaves the same
	// way: it keeps retrying while the server keeps answering, bounded by
	// its own deadline rather than a small attempt count.
	clients := make([]*serveclient.Client, chaosClients)
	for i := range clients {
		clients[i] = serveclient.New(serveclient.Config{
			BaseURL:     ts.URL,
			Seed:        int64(i + 1),
			MaxAttempts: 60,
			Sleep:       func(d time.Duration) { time.Sleep(d / 5) },
		})
	}

	perClient := opts.Runs * chaosTraces
	total := chaosClients * perClient
	type sample struct {
		ok      bool
		shed    int
		retries int
		uploads int
		wall    time.Duration
	}
	samples := make([]sample, total)
	var (
		wg      sync.WaitGroup
		flipped sync.Once
		flipErr error
	)
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for ri := 0; ri < perClient; ri++ {
				raw := raws[(ci+ri)%len(raws)]
				// Halfway through, corrupt trace 0's store object in place.
				// The next read of it must quarantine, 404 the digest probe,
				// and force a client re-upload — never serve rotten bytes.
				if ci == 0 && ri == perClient/2 {
					flipped.Do(func() {
						path := srv.Store().ObjectPath(serveclient.Digest(raws[0]))
						if _, err := chaoshttp.FlipBit(path, 1); err != nil && !os.IsNotExist(err) {
							flipErr = err
						}
					})
				}
				start := time.Now()
				// One machine size per request: chaos measures robustness,
				// not prediction breadth, and a single simulation keeps the
				// soak fast enough for CI.
				res, err := clients[ci].Predict(context.Background(), raw, url.Values{"cpus": {"2"}})
				s := sample{wall: time.Since(start), ok: err == nil && res.Status == 200}
				s.shed, s.retries, s.uploads = res.Shed, res.Retries, res.Uploads
				samples[ci*perClient+ri] = s
			}
		}(ci)
	}
	wg.Wait()
	if flipErr != nil {
		return nil, fmt.Errorf("chaos: corrupting store object: %w", flipErr)
	}

	out := &ChaosResult{Requests: total, Faults: map[string]int64{}}
	var walls []time.Duration
	for _, s := range samples {
		if s.ok {
			out.Succeeded++
		}
		out.Shed += s.shed
		out.Retries += s.retries
		out.Uploads += s.uploads
		walls = append(walls, s.wall)
	}
	out.Availability = float64(out.Succeeded) / float64(total)
	out.ShedRate = float64(out.Shed) / float64(total)
	for class, n := range injector.Counts() {
		out.Faults[string(class)] = n
	}
	out.PanicsRecovered = srv.Metrics().Panics().Load()
	out.ShedByServer = srv.Metrics().Shed().Load()
	out.Quarantined = srv.Store().CorruptTotal()
	out.FaultedFromDisk = srv.Cache().Faulted()
	out.BreakerTrips = srv.BreakerTrips()
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(walls)-1))
		return float64(walls[i]) / float64(time.Millisecond)
	}
	out.P50Ms, out.P95Ms, out.P99Ms = pct(0.50), pct(0.95), pct(0.99)

	var b strings.Builder
	b.WriteString("Chaos soak: vppb-serve under seeded faults, driven by the retrying client\n\n")
	fmt.Fprintf(&b, "%d requests from %d clients over %d trace digests "+
		"(cache %d entries, max %d in flight)\n",
		total, chaosClients, chaosTraces, chaosCacheSize, chaosMaxInflight)
	fmt.Fprintf(&b, "injected faults:")
	for _, class := range []chaoshttp.Class{chaoshttp.Drop, chaoshttp.Torn, chaoshttp.Latency, chaoshttp.Panic, chaoshttp.Clean} {
		fmt.Fprintf(&b, " %s=%d", class, out.Faults[string(class)])
	}
	b.WriteString(" + 1 store object bit-flipped in place\n\n")
	fmt.Fprintf(&b, "availability        %d/%d = %.2f%%\n", out.Succeeded, total, 100*out.Availability)
	fmt.Fprintf(&b, "client shed seen    %d (%.2f per request), %d retries, %d uploads\n",
		out.Shed, out.ShedRate, out.Retries, out.Uploads)
	fmt.Fprintf(&b, "server recovered    %d panics, shed %d, quarantined %d corrupt object(s), "+
		"faulted %d entries back from disk, %d breaker trips\n",
		out.PanicsRecovered, out.ShedByServer, out.Quarantined, out.FaultedFromDisk, out.BreakerTrips)
	fmt.Fprintf(&b, "client latency      p50 %.1fms  p95 %.1fms  p99 %.1fms\n",
		out.P50Ms, out.P95Ms, out.P99Ms)
	out.Report = b.String()
	return out, nil
}
