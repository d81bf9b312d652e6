package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"vppb/internal/faultinject"
	"vppb/internal/recorder"
	"vppb/internal/sched"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// traceBytes records a workload and returns its text encoding — what a
// client would POST.
func traceBytes(t *testing.T, workload string, scale float64) []byte {
	t.Helper()
	w, err := workloads.Get(workload)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Scale: scale, Threads: 4}), recorder.Options{Program: workload})
	if err != nil {
		t.Fatal(err)
	}
	return trace.AppendText(nil, log)
}

// corruptBytes records a workload and damages the log before encoding.
func corruptBytes(t *testing.T) []byte {
	t.Helper()
	w, err := workloads.Get("example")
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Scale: 0.2, Threads: 4}), recorder.Options{Program: "example"})
	if err != nil {
		t.Fatal(err)
	}
	bad, _, err := faultinject.Inject(log, "truncate", 1)
	if err != nil {
		t.Fatal(err)
	}
	return trace.AppendText(nil, bad)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPredictSecondPostServedFromCache is the end-to-end service proof of
// the PR: the second POST of the same trace is a profile-cache hit,
// returns a byte-identical body, and the hit shows up in /metrics.
func TestPredictSecondPostServedFromCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "example", 0.2)

	resp1, body1 := post(t, ts.URL+"/v1/predict?cpus=1,2,4", raw)
	if resp1.StatusCode != 200 {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Vppb-Cache"); got != "miss" {
		t.Fatalf("first POST cache header = %q, want miss", got)
	}
	resp2, body2 := post(t, ts.URL+"/v1/predict?cpus=1,2,4", raw)
	if resp2.StatusCode != 200 {
		t.Fatalf("second POST: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Vppb-Cache"); got != "hit" {
		t.Fatalf("second POST cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("bodies differ:\n--- first\n%s--- second\n%s", body1, body2)
	}
	if resp1.Header.Get("X-Vppb-Trace") != resp2.Header.Get("X-Vppb-Trace") {
		t.Fatal("trace digests differ between identical uploads")
	}

	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"vppb_profile_cache_hits_total 1",
		"vppb_profile_cache_misses_total 1",
		"vppb_profile_cache_entries 1",
		`vppb_requests_total{route="/v1/predict",code="200"} 2`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

func TestPredictResponseShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "example", 0.2)
	resp, body := post(t, ts.URL+"/v1/predict?cpus=2,8&policy=rr", raw)
	if resp.StatusCode != 200 {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var pr struct {
		Trace       string `json:"trace"`
		Program     string `json:"program"`
		RecordedUS  int64  `json:"recorded_us"`
		Policy      string `json:"policy"`
		Predictions []struct {
			CPUs        int     `json:"cpus"`
			PredictedUS int64   `json:"predicted_us"`
			Speedup     float64 `json:"speedup"`
			Events      int64   `json:"events"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if pr.Program != "example" || pr.Policy != "rr" || pr.RecordedUS <= 0 {
		t.Fatalf("header fields wrong: %+v", pr)
	}
	if len(pr.Predictions) != 2 || pr.Predictions[0].CPUs != 2 || pr.Predictions[1].CPUs != 8 {
		t.Fatalf("predictions wrong: %+v", pr.Predictions)
	}
	for _, p := range pr.Predictions {
		if p.PredictedUS <= 0 || p.Speedup <= 0 || p.Events <= 0 {
			t.Fatalf("degenerate prediction: %+v", p)
		}
	}
	if pr.Trace != Digest(raw) {
		t.Fatalf("trace digest = %s, want content address of the upload", pr.Trace)
	}
	// The default policy resolves to its registry name in the response.
	resp, body = post(t, ts.URL+"/v1/predict", raw)
	if resp.StatusCode != 200 {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), fmt.Sprintf("%q: %q", "policy", sched.Default)) {
		t.Fatalf("default policy not named:\n%s", body)
	}
}

// TestPredictConcurrentClients hammers one server with concurrent clients
// mixing two traces — the -race proof for the shared cache, the shared
// profiles, and the metrics registry.
func TestPredictConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rawA := traceBytes(t, "example", 0.2)
	rawB := traceBytes(t, "prodcons", 0.2)

	// Prime both so every concurrent body can be compared to a reference.
	_, wantA := post(t, ts.URL+"/v1/predict?cpus=1,2,4", rawA)
	_, wantB := post(t, ts.URL+"/v1/predict?cpus=1,2,4", rawB)

	const clients = 12
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			raw, want := rawA, wantA
			if c%2 == 1 {
				raw, want = rawB, wantB
			}
			resp, err := http.Post(ts.URL+"/v1/predict?cpus=1,2,4", "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				errs[c] = err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs[c] = err
				return
			}
			if resp.StatusCode != 200 {
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			if !bytes.Equal(body, want) {
				errs[c] = fmt.Errorf("client %d body diverged from reference", c)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
}

func TestRepairOnIngestAndStrict(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := corruptBytes(t)

	// strict=true refuses the corrupt upload.
	resp, body := post(t, ts.URL+"/v1/predict?strict=true", raw)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("strict POST of corrupt log: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "strict") {
		t.Fatalf("error does not mention strict: %s", body)
	}

	// The default policy repairs and predicts, reporting the repair.
	resp, body = post(t, ts.URL+"/v1/predict", raw)
	if resp.StatusCode != 200 {
		t.Fatalf("lenient POST of corrupt log: %d %s", resp.StatusCode, body)
	}
	var pr struct {
		Repaired      bool   `json:"repaired"`
		RepairSummary string `json:"repair_summary"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Repaired || pr.RepairSummary == "" {
		t.Fatalf("repair not reported: %s", body)
	}

	// strict must keep refusing even now that the repaired entry is
	// cached.
	resp, body = post(t, ts.URL+"/v1/predict?strict=true", raw)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("strict POST after caching: %d %s", resp.StatusCode, body)
	}
}

func TestBoundsAndLockOrderByDigest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "lockorder", 0.2)
	resp, body := post(t, ts.URL+"/v1/predict?cpus=2", raw)
	if resp.StatusCode != 200 {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	digest := resp.Header.Get("X-Vppb-Trace")

	resp, body = get(t, ts.URL+"/v1/bounds?trace="+digest)
	if resp.StatusCode != 200 {
		t.Fatalf("bounds: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Vppb-Cache"); got != "hit" {
		t.Fatalf("bounds by digest should be a cache hit, got %q", got)
	}
	var br struct {
		Bound  float64 `json:"speedup_bound"`
		WorkUS int64   `json:"work_us"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("bad bounds JSON: %v\n%s", err, body)
	}
	if br.Bound < 1 || br.WorkUS <= 0 {
		t.Fatalf("degenerate bounds: %s", body)
	}
	if strings.Contains(string(body), "lock_order_edges") {
		t.Fatalf("bounds response leaks the lock-order graph:\n%s", body)
	}

	resp, body = get(t, ts.URL+"/v1/lockorder?trace="+digest)
	if resp.StatusCode != 200 {
		t.Fatalf("lockorder: %d %s", resp.StatusCode, body)
	}
	var lr struct {
		Deadlock bool `json:"potential_deadlock"`
		Edges    []struct {
			From string `json:"from"`
			To   string `json:"to"`
		} `json:"lock_order_edges"`
	}
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatalf("bad lockorder JSON: %v\n%s", err, body)
	}
	// The lockorder workload takes two locks in both orders — the whole
	// point of the endpoint is to flag it.
	if !lr.Deadlock || len(lr.Edges) == 0 {
		t.Fatalf("lock-order analysis missed the inversion: %s", body)
	}

	// An unknown digest is a 404, not an empty analysis.
	resp, _ = get(t, ts.URL+"/v1/bounds?trace=deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: %d", resp.StatusCode)
	}
}

func TestViewEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "example", 0.2)
	resp, body := post(t, ts.URL+"/v1/view.svg?cpus=4", raw)
	if resp.StatusCode != 200 {
		t.Fatalf("view.svg: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("svg content type = %q", ct)
	}
	if !strings.Contains(string(body), "<svg") || !strings.Contains(string(body), "4 simulated CPUs") {
		t.Fatalf("svg body wrong:\n%.300s", body)
	}

	digest := resp.Header.Get("X-Vppb-Trace")
	resp, body = get(t, ts.URL+"/v1/view.html?trace="+digest+"&cpus=2")
	if resp.StatusCode != 200 {
		t.Fatalf("view.html: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "<!DOCTYPE html>") {
		t.Fatalf("html body wrong:\n%.300s", body)
	}
}

// TestQueryLimits checks the bounds on simulated CPUs and SVG width:
// the limits themselves are served, anything past them is a 400 that
// names the limit, before any simulation runs.
func TestQueryLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "example", 0.2)
	resp, body := post(t, ts.URL+"/v1/predict?cpus="+strings.Repeat("1,", MaxCPUCounts-1)+"1", raw)
	if resp.StatusCode != 200 {
		t.Fatalf("%d CPU counts: %d %s", MaxCPUCounts, resp.StatusCode, body)
	}
	digest := resp.Header.Get("X-Vppb-Trace")
	for _, tc := range []struct {
		query      string
		wantStatus int
		wantInBody string
	}{
		{"&cpus=1024", 200, "<svg"},
		{"&cpus=1025", 400, "limit of 1024 CPUs"},
		{"&width=101", 200, `width="101"`},
		{"&width=100", 400, "width wants an integer \\u003e= 101"},
		{"&width=50", 400, "width wants an integer \\u003e= 101"},
	} {
		resp, body := get(t, ts.URL+"/v1/view.svg?trace="+digest+tc.query)
		if resp.StatusCode != tc.wantStatus || !strings.Contains(string(body), tc.wantInBody) {
			t.Errorf("view.svg%s: %d %.200s, want %d mentioning %q", tc.query, resp.StatusCode, body, tc.wantStatus, tc.wantInBody)
		}
		if m := regexp.MustCompile(`(width|height)="-`).Find(body); m != nil {
			t.Errorf("view.svg%s: negative size attribute %s", tc.query, m)
		}
	}
	resp, body = post(t, ts.URL+"/v1/optimize?cpus=1,1025&trace="+digest, nil)
	if resp.StatusCode != 400 || !strings.Contains(string(body), "limit of 1024 CPUs") {
		t.Errorf("optimize cpus=1,1025: %d %s", resp.StatusCode, body)
	}
}

func TestUsageErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t, "example", 0.2)

	for _, tc := range []struct {
		name, query string
		wantInBody  string
	}{
		{"bad cpus", "?cpus=0", "cpus"},
		{"garbage cpus", "?cpus=two", "cpus"},
		{"too many cpus", "?cpus=2,1025", "limit of 1024 CPUs"},
		{"cpus far past the limit", "?cpus=10000000", "limit of 1024 CPUs"},
		{"too long cpus list", "?cpus=" + strings.Repeat("1,", MaxCPUCounts) + "1", "the limit is 64"},
		{"bad strict", "?strict=perhaps", "strict"},
	} {
		resp, body := post(t, ts.URL+"/v1/predict"+tc.query, raw)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.wantInBody) {
			t.Errorf("%s: body %s does not mention %q", tc.name, body, tc.wantInBody)
		}
	}

	// An unknown policy is rejected with the valid-value listing, exactly
	// like the CLI contract.
	resp, body := post(t, ts.URL+"/v1/predict?policy=lottery", raw)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy: %d", resp.StatusCode)
	}
	for _, want := range append([]string{"lottery"}, sched.Names()...) {
		if !strings.Contains(string(body), want) {
			t.Errorf("policy error %s does not mention %q", body, want)
		}
	}

	// Empty body with no digest.
	resp, body = post(t, ts.URL+"/v1/predict", nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trace") {
		t.Fatalf("empty body: %d %s", resp.StatusCode, body)
	}

	// Garbage body.
	resp, _ = post(t, ts.URL+"/v1/predict", []byte("not a log\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", resp.StatusCode)
	}

	// GET on the upload-only endpoint.
	resp, _ = get(t, ts.URL+"/v1/predict")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: %d", resp.StatusCode)
	}
}

func TestBodySizeLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBodyBytes: 64, StoreDir: t.TempDir()})
	raw := traceBytes(t, "example", 0.2)
	resp, body := post(t, ts.URL+"/v1/predict", raw)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %d %s", resp.StatusCode, body)
	}
	// A rejected oversized body must never reach the durable store.
	if n := s.Store().Len(); n != 0 {
		t.Fatalf("store has %d entries after a rejected upload, want 0", n)
	}
}

// TestDurableStoreSurvivesRestart: an upload persisted by one Server is
// replayable by digest from a second Server over the same store root,
// with a byte-identical body and a cache-hit verdict — the in-process
// version of the kill-and-restart proof in cmd/vppb-serve.
func TestDurableStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{StoreDir: dir})
	raw := traceBytes(t, "example", 0.2)
	resp1, body1 := post(t, ts1.URL+"/v1/predict?cpus=1,2,4", raw)
	if resp1.StatusCode != 200 {
		t.Fatalf("upload: %d %s", resp1.StatusCode, body1)
	}
	digest := resp1.Header.Get("X-Vppb-Trace")
	ts1.Close()

	_, ts2 := newTestServer(t, Config{StoreDir: dir})
	resp2, body2 := post(t, ts2.URL+"/v1/predict?cpus=1,2,4&trace="+digest, nil)
	if resp2.StatusCode != 200 {
		t.Fatalf("replay after restart: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Vppb-Cache"); got != "hit" {
		t.Fatalf("replay after restart cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("bodies differ across restart:\n--- before\n%s--- after\n%s", body1, body2)
	}

	// A memory-only daemon over no store must still 404 unknown digests.
	_, ts3 := newTestServer(t, Config{})
	resp3, _ := post(t, ts3.URL+"/v1/predict?trace="+digest, nil)
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("memory-only daemon resolved a foreign digest: %d", resp3.StatusCode)
	}
}

// TestEvictionFaultsBackInFromStore: LRU eviction removes only the
// in-memory entry; a later request by digest faults it back in from disk
// instead of 404ing.
func TestEvictionFaultsBackInFromStore(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), CacheEntries: 1})
	rawA := traceBytes(t, "example", 0.2)
	rawB := traceBytes(t, "prodcons", 0.2)

	respA, bodyA := post(t, ts.URL+"/v1/predict?cpus=1,2", rawA)
	if respA.StatusCode != 200 {
		t.Fatalf("upload A: %d %s", respA.StatusCode, bodyA)
	}
	digestA := respA.Header.Get("X-Vppb-Trace")
	if respB, bodyB := post(t, ts.URL+"/v1/predict?cpus=1,2", rawB); respB.StatusCode != 200 {
		t.Fatalf("upload B: %d %s", respB.StatusCode, bodyB)
	}
	// B evicted A from the single-entry memory cache — but not from disk.
	if s.Cache().Len() != 1 {
		t.Fatalf("cache len = %d, want 1", s.Cache().Len())
	}
	if !s.Store().Has(digestA) {
		t.Fatal("eviction deleted the on-disk entry")
	}

	resp, body := post(t, ts.URL+"/v1/predict?cpus=1,2&trace="+digestA, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("replay of evicted digest: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Vppb-Cache"); got != "hit" {
		t.Fatalf("faulted-in replay cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, bodyA) {
		t.Fatal("faulted-in body differs from the original upload's")
	}
	if got := s.Cache().Faulted(); got != 1 {
		t.Fatalf("cache fault-ins = %d, want 1", got)
	}
}

// TestQuarantineBitFlippedStoreFile: a store entry corrupted on disk is
// quarantined on read (404 to the client, counted on /metrics), and a
// re-upload of the true bytes restores service for that digest.
func TestQuarantineBitFlippedStoreFile(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), CacheEntries: 1})
	rawA := traceBytes(t, "example", 0.2)
	rawB := traceBytes(t, "prodcons", 0.2)
	respA, _ := post(t, ts.URL+"/v1/predict?cpus=2", rawA)
	digestA := respA.Header.Get("X-Vppb-Trace")
	post(t, ts.URL+"/v1/predict?cpus=2", rawB) // evict A from memory

	// Bit-flip A's bytes on disk.
	path := s.Store().ObjectPath(digestA)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v1/predict?trace="+digestA, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt store entry served: %d %s", resp.StatusCode, body)
	}
	if got := s.Store().CorruptTotal(); got != 1 {
		t.Fatalf("CorruptTotal = %d, want 1", got)
	}
	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsBody), "vppb_store_corrupt_total 1") {
		t.Fatalf("/metrics does not count the quarantine:\n%s", metricsBody)
	}

	// The client still holds the bytes: re-uploading restores the digest.
	resp, body = post(t, ts.URL+"/v1/predict?cpus=2", rawA)
	if resp.StatusCode != 200 {
		t.Fatalf("re-upload after quarantine: %d %s", resp.StatusCode, body)
	}
	if !s.Store().Has(digestA) {
		t.Fatal("re-upload did not restore the store entry")
	}
}

// TestMetricsNamesExposed pins the operational metric names the ROADMAP's
// scale-out tooling scrapes.
func TestMetricsNamesExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	get(t, ts.URL+"/healthz") // seed one observed request
	_, body := get(t, ts.URL+"/metrics")
	for _, name := range []string{
		"vppb_inflight ",
		"vppb_shed_total ",
		"vppb_panics_total ",
		"vppb_store_corrupt_total ",
		"vppb_store_entries ",
		"vppb_breaker_trips_total ",
		"vppb_requests_total{",
		"vppb_profile_cache_hits_total ",
	} {
		if !strings.Contains(string(body), "\n"+name) && !strings.HasPrefix(string(body), name) {
			t.Errorf("/metrics missing series %q:\n%s", strings.TrimSpace(name), body)
		}
	}
	// The store series must exist (at zero) even for a memory-only daemon.
	_, ts2 := newTestServer(t, Config{})
	_, body2 := get(t, ts2.URL+"/metrics")
	if !strings.Contains(string(body2), "vppb_store_corrupt_total 0") {
		t.Errorf("memory-only /metrics dropped the store series:\n%s", body2)
	}
}

// TestPanicRecoveryConvertsTo500: a panicking handler costs one request
// (500 + vppb_panics_total), never the process, and the daemon keeps
// serving afterwards.
func TestPanicRecoveryConvertsTo500(t *testing.T) {
	panicky := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("X-Test-Panic") != "" {
				panic("injected handler panic")
			}
			next.ServeHTTP(w, r)
		})
	}
	_, ts := newTestServer(t, Config{Middleware: panicky})
	raw := traceBytes(t, "example", 0.2)

	req, err := http.NewRequest("POST", ts.URL+"/v1/predict", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Test-Panic", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d %s, want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Fatalf("500 body does not mention the panic: %s", body)
	}

	// The daemon survived and still serves.
	resp2, body2 := post(t, ts.URL+"/v1/predict?cpus=2", raw)
	if resp2.StatusCode != 200 {
		t.Fatalf("request after panic: %d %s", resp2.StatusCode, body2)
	}
	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"vppb_panics_total 1",
		`vppb_requests_total{route="/v1/predict",code="500"} 1`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestAdmissionShedsWith503: with one inflight slot held by a stalled
// request, the next simulation request is shed with 503 + Retry-After
// while /healthz and /metrics (ungated) keep answering.
func TestAdmissionShedsWith503(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	stall := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("X-Test-Stall") != "" {
				entered <- struct{}{}
				<-block
			}
			next.ServeHTTP(w, r)
		})
	}
	s, ts := newTestServer(t, Config{MaxInflight: 1, AdmissionWait: -1, Middleware: stall})
	raw := traceBytes(t, "example", 0.2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/predict?cpus=2", bytes.NewReader(raw))
		req.Header.Set("X-Test-Stall", "1")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered // the slot is now held inside the handler

	resp, body := post(t, ts.URL+"/v1/predict?cpus=2", raw)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response lacks Retry-After")
	}
	if !strings.Contains(string(body), "capacity") {
		t.Fatalf("shed body: %s", body)
	}

	// Observability endpoints bypass admission.
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz gated by admission: %d", resp.StatusCode)
	}
	resp, metricsBody := get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics gated by admission: %d", resp.StatusCode)
	}
	if !strings.Contains(string(metricsBody), "vppb_shed_total 1") {
		t.Errorf("/metrics missing the shed count:\n%s", metricsBody)
	}

	close(block)
	<-done
	if got := s.Metrics().Shed().Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

// TestBreakerTripsPerDigest: repeated simulation failures for one digest
// trip its breaker; further requests fast-fail with 503 + Retry-After
// instead of burning another event budget.
func TestBreakerTripsPerDigest(t *testing.T) {
	// A nanosecond deadline makes every simulation fail with 504.
	_, ts := newTestServer(t, Config{
		RequestTimeout:  time.Nanosecond,
		BreakerFailures: 2,
		BreakerCooldown: time.Hour,
	})
	raw := traceBytes(t, "example", 0.2)

	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/v1/predict", raw)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("failure %d: %d %s, want 504", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, ts.URL+"/v1/predict", raw)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-trip request: %d %s, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "breaker") {
		t.Fatalf("post-trip body does not mention the breaker: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker rejection lacks Retry-After")
	}
	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsBody), "vppb_breaker_trips_total 1") {
		t.Errorf("/metrics missing the breaker trip:\n%s", metricsBody)
	}
}

func TestRequestDeadlineAbortsSimulation(t *testing.T) {
	// A deadline too short for any work maps to 504 — the ingestion may
	// still succeed, but the fan-out must refuse to start.
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	raw := traceBytes(t, "example", 0.2)
	resp, body := post(t, ts.URL+"/v1/predict", raw)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d %s, want 504", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("body does not mention the deadline: %s", body)
	}
}

func TestHealthzAndPprof(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
}

// TestHBAnalysisCachedPerEntry: the happens-before analysis is computed
// once per entry and shared, so a second bounds request reuses it.
func TestHBAnalysisCachedPerEntry(t *testing.T) {
	e := &Entry{}
	w, err := workloads.Get("example")
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Scale: 0.2, Threads: 4}), recorder.Options{Program: "example"})
	if err != nil {
		t.Fatal(err)
	}
	e.Log = log
	a1, err := e.HB()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.HB()
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("HB analysis recomputed instead of cached")
	}
}
