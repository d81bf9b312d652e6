package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metrics is the daemon's hand-rolled Prometheus registry (text
// exposition format 0.0.4; no client library dependency). It tracks the
// quantities an operator needs to size and debug the service: per-route
// request counts by status code, the profile-cache hit rate, the number of
// requests in flight, the simulation queue depth, and a request latency
// histogram.
type Metrics struct {
	mu           sync.Mutex
	requests     map[requestKey]int64
	ingestErrors map[string]int64 // rejected uploads, by detected format
	buckets      []float64        // upper bounds, seconds, ascending; +Inf implied
	counts       []int64          // one per bucket plus the +Inf bucket
	sum          float64
	count        int64

	inflight atomic.Int64
	simQueue atomic.Int64
	shed     atomic.Int64
	panics   atomic.Int64

	optimizeSimulated  atomic.Int64
	optimizePruned     atomic.Int64
	singleflightShared atomic.Int64

	proxyForwarded map[string]int64 // proxied requests, by owning peer
	proxyDegraded  atomic.Int64
	proxyLoops     atomic.Int64
}

type requestKey struct {
	route string
	code  int
}

// defaultBuckets spans sub-millisecond cache hits to multi-second
// cold simulations.
var defaultBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:       make(map[requestKey]int64),
		ingestErrors:   make(map[string]int64),
		proxyForwarded: make(map[string]int64),
		buckets:        defaultBuckets,
		counts:         make([]int64, len(defaultBuckets)+1),
	}
}

// ObserveRequest records one finished request: its route, response status
// code, and wall-clock latency in seconds.
func (m *Metrics) ObserveRequest(route string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{route, code}]++
	m.sum += seconds
	m.count++
	for i, ub := range m.buckets {
		if seconds <= ub {
			m.counts[i]++
		}
	}
	m.counts[len(m.buckets)]++
}

// IngestError counts one rejected upload: format is the detected trace
// format ("vppb", "gotrace") or "unknown" when the bytes matched neither.
func (m *Metrics) IngestError(format string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingestErrors[format]++
}

// Inflight is the gauge of requests currently being served.
func (m *Metrics) Inflight() *atomic.Int64 { return &m.inflight }

// SimQueue is the gauge of machine simulations submitted to the worker
// pool and not yet finished (queued plus running).
func (m *Metrics) SimQueue() *atomic.Int64 { return &m.simQueue }

// Shed counts requests rejected by admission control (503 + Retry-After).
func (m *Metrics) Shed() *atomic.Int64 { return &m.shed }

// Panics counts handler panics converted into 500 responses.
func (m *Metrics) Panics() *atomic.Int64 { return &m.panics }

// OptimizeSimulated counts grid candidates /v1/optimize actually
// simulated.
func (m *Metrics) OptimizeSimulated() *atomic.Int64 { return &m.optimizeSimulated }

// OptimizePruned counts grid candidates /v1/optimize skipped because
// their happens-before lower bound already lost to the incumbent.
func (m *Metrics) OptimizePruned() *atomic.Int64 { return &m.optimizePruned }

// SingleflightShared counts requests that joined another identical
// in-flight request instead of simulating themselves.
func (m *Metrics) SingleflightShared() *atomic.Int64 { return &m.singleflightShared }

// ProxyForwarded counts one request forwarded to the peer that owns its
// trace digest.
func (m *Metrics) ProxyForwarded(peer string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.proxyForwarded[peer]++
}

// ProxyForwardedTotal reports forwards to one peer (for tests).
func (m *Metrics) ProxyForwardedTotal(peer string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.proxyForwarded[peer]
}

// ProxyDegraded counts requests served locally because the owning peer
// was unreachable.
func (m *Metrics) ProxyDegraded() *atomic.Int64 { return &m.proxyDegraded }

// ProxyLoops counts requests that arrived with the forwarding budget
// already spent (membership disagreement) and were served locally.
func (m *Metrics) ProxyLoops() *atomic.Int64 { return &m.proxyLoops }

// WritePrometheus renders the registry (and the cache, store and breaker
// counters) in the Prometheus text exposition format. Output is
// deterministic: series are sorted by route and code. store may be nil
// (memory-only daemon); its series are emitted anyway, pinned at zero, so
// dashboards don't break when durability is off.
func (m *Metrics) WritePrometheus(w io.Writer, cache *Cache, store *Store, breakerTrips int64) {
	m.mu.Lock()
	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	counts := append([]int64(nil), m.counts...)
	sum, count := m.sum, m.count
	reqs := make([]int64, len(keys))
	for i, k := range keys {
		reqs[i] = m.requests[k]
	}
	ingestFormats := make([]string, 0, len(m.ingestErrors))
	for f := range m.ingestErrors {
		ingestFormats = append(ingestFormats, f)
	}
	sort.Strings(ingestFormats)
	ingestCounts := make([]int64, len(ingestFormats))
	for i, f := range ingestFormats {
		ingestCounts[i] = m.ingestErrors[f]
	}
	proxyPeers := make([]string, 0, len(m.proxyForwarded))
	for p := range m.proxyForwarded {
		proxyPeers = append(proxyPeers, p)
	}
	sort.Strings(proxyPeers)
	proxyCounts := make([]int64, len(proxyPeers))
	for i, p := range proxyPeers {
		proxyCounts[i] = m.proxyForwarded[p]
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP vppb_requests_total Requests served, by route and status code.")
	fmt.Fprintln(w, "# TYPE vppb_requests_total counter")
	for i, k := range keys {
		fmt.Fprintf(w, "vppb_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, reqs[i])
	}

	fmt.Fprintln(w, "# HELP vppb_ingest_errors_total Uploads rejected at ingestion, by detected trace format.")
	fmt.Fprintln(w, "# TYPE vppb_ingest_errors_total counter")
	for i, f := range ingestFormats {
		fmt.Fprintf(w, "vppb_ingest_errors_total{format=%q} %d\n", f, ingestCounts[i])
	}

	hits, misses, evicted := cache.Stats()
	fmt.Fprintln(w, "# HELP vppb_profile_cache_hits_total Content-addressed profile cache hits.")
	fmt.Fprintln(w, "# TYPE vppb_profile_cache_hits_total counter")
	fmt.Fprintf(w, "vppb_profile_cache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP vppb_profile_cache_misses_total Content-addressed profile cache misses.")
	fmt.Fprintln(w, "# TYPE vppb_profile_cache_misses_total counter")
	fmt.Fprintf(w, "vppb_profile_cache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP vppb_profile_cache_evictions_total Entries evicted from the profile cache.")
	fmt.Fprintln(w, "# TYPE vppb_profile_cache_evictions_total counter")
	fmt.Fprintf(w, "vppb_profile_cache_evictions_total %d\n", evicted)
	fmt.Fprintln(w, "# HELP vppb_profile_cache_entries Entries currently cached.")
	fmt.Fprintln(w, "# TYPE vppb_profile_cache_entries gauge")
	fmt.Fprintf(w, "vppb_profile_cache_entries %d\n", cache.Len())

	var corrupt, putErrs, stored int64
	if store != nil {
		corrupt = store.CorruptTotal()
		putErrs = store.PutErrorsTotal()
		stored = int64(store.Len())
	}
	fmt.Fprintln(w, "# HELP vppb_store_corrupt_total Durable-store entries that failed digest verification and were quarantined.")
	fmt.Fprintln(w, "# TYPE vppb_store_corrupt_total counter")
	fmt.Fprintf(w, "vppb_store_corrupt_total %d\n", corrupt)
	fmt.Fprintln(w, "# HELP vppb_store_put_errors_total Durability writes that failed (entry served from memory only).")
	fmt.Fprintln(w, "# TYPE vppb_store_put_errors_total counter")
	fmt.Fprintf(w, "vppb_store_put_errors_total %d\n", putErrs)
	fmt.Fprintln(w, "# HELP vppb_store_entries Entries currently in the durable store.")
	fmt.Fprintln(w, "# TYPE vppb_store_entries gauge")
	fmt.Fprintf(w, "vppb_store_entries %d\n", stored)

	fmt.Fprintln(w, "# HELP vppb_inflight Requests currently being served.")
	fmt.Fprintln(w, "# TYPE vppb_inflight gauge")
	fmt.Fprintf(w, "vppb_inflight %d\n", m.inflight.Load())
	fmt.Fprintln(w, "# HELP vppb_shed_total Requests shed by admission control (503).")
	fmt.Fprintln(w, "# TYPE vppb_shed_total counter")
	fmt.Fprintf(w, "vppb_shed_total %d\n", m.shed.Load())
	fmt.Fprintln(w, "# HELP vppb_panics_total Handler panics recovered and converted into 500 responses.")
	fmt.Fprintln(w, "# TYPE vppb_panics_total counter")
	fmt.Fprintf(w, "vppb_panics_total %d\n", m.panics.Load())
	fmt.Fprintln(w, "# HELP vppb_breaker_trips_total Per-digest circuit-breaker trips after repeated simulation failures.")
	fmt.Fprintln(w, "# TYPE vppb_breaker_trips_total counter")
	fmt.Fprintf(w, "vppb_breaker_trips_total %d\n", breakerTrips)
	fmt.Fprintln(w, "# HELP vppb_sim_queue_depth Machine simulations queued or running in the worker pool.")
	fmt.Fprintln(w, "# TYPE vppb_sim_queue_depth gauge")
	fmt.Fprintf(w, "vppb_sim_queue_depth %d\n", m.simQueue.Load())
	fmt.Fprintln(w, "# HELP vppb_optimize_simulated_total Optimize grid candidates simulated.")
	fmt.Fprintln(w, "# TYPE vppb_optimize_simulated_total counter")
	fmt.Fprintf(w, "vppb_optimize_simulated_total %d\n", m.optimizeSimulated.Load())
	fmt.Fprintln(w, "# HELP vppb_optimize_pruned_total Optimize grid candidates pruned by the happens-before lower bound.")
	fmt.Fprintln(w, "# TYPE vppb_optimize_pruned_total counter")
	fmt.Fprintf(w, "vppb_optimize_pruned_total %d\n", m.optimizePruned.Load())
	fmt.Fprintln(w, "# HELP vppb_singleflight_shared_total Requests served by joining an identical in-flight request.")
	fmt.Fprintln(w, "# TYPE vppb_singleflight_shared_total counter")
	fmt.Fprintf(w, "vppb_singleflight_shared_total %d\n", m.singleflightShared.Load())
	fmt.Fprintln(w, "# HELP vppb_proxy_forwarded_total Requests forwarded to the peer owning the trace digest.")
	fmt.Fprintln(w, "# TYPE vppb_proxy_forwarded_total counter")
	for i, p := range proxyPeers {
		fmt.Fprintf(w, "vppb_proxy_forwarded_total{peer=%q} %d\n", p, proxyCounts[i])
	}
	fmt.Fprintln(w, "# HELP vppb_proxy_degraded_total Requests served locally because the owning peer was unreachable.")
	fmt.Fprintln(w, "# TYPE vppb_proxy_degraded_total counter")
	fmt.Fprintf(w, "vppb_proxy_degraded_total %d\n", m.proxyDegraded.Load())
	fmt.Fprintln(w, "# HELP vppb_proxy_loops_total Requests served locally after exhausting the forwarding hop budget.")
	fmt.Fprintln(w, "# TYPE vppb_proxy_loops_total counter")
	fmt.Fprintf(w, "vppb_proxy_loops_total %d\n", m.proxyLoops.Load())

	fmt.Fprintln(w, "# HELP vppb_request_duration_seconds Request latency.")
	fmt.Fprintln(w, "# TYPE vppb_request_duration_seconds histogram")
	for i, ub := range m.buckets {
		fmt.Fprintf(w, "vppb_request_duration_seconds_bucket{le=%q} %d\n",
			strconv.FormatFloat(ub, 'g', -1, 64), counts[i])
	}
	fmt.Fprintf(w, "vppb_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", counts[len(counts)-1])
	fmt.Fprintf(w, "vppb_request_duration_seconds_sum %g\n", sum)
	fmt.Fprintf(w, "vppb_request_duration_seconds_count %d\n", count)
}
