// Package serve turns the VPPB pipeline — repair, profile, simulate,
// bounds, visualize — into a long-lived prediction service. Where the CLIs
// re-read, re-repair and re-profile a trace on every invocation, the
// daemon ingests a trace once, addresses it by the SHA-256 of its bytes,
// and keeps the immutable behaviour profile in an LRU cache so a repeated
// trace goes straight to simulation.
//
// Endpoints:
//
//	POST /v1/predict      trace upload -> per-machine-size predictions
//	                      (?cpus=1,2,4,8 ?policy=ts ?strict=true),
//	                      or ?trace=<digest> to reuse an uploaded trace
//	POST /v1/optimize     rank every (policy x CPU) configuration; the
//	                      sweep prunes by the lower bound Work/c
//	                      (?cpus= ?policies=
//	                      ?exhaustive=true for the naive baseline)
//	GET  /v1/bounds       critical-path speed-up bound  (?trace= or POST body)
//	GET  /v1/lockorder    lock-order cycles / potential deadlocks
//	GET  /v1/view.svg     predicted-execution rendering (?cpus=N ?width=);
//	                      ?cpus is at most MaxCPUs, ?width at least
//	                      viz.MinSVGWidth
//	GET  /v1/view.html    self-contained HTML report
//	GET  /metrics         Prometheus text format
//	GET  /healthz         readiness probe
//	     /debug/pprof/*   Go profiling
//
// The ingestion path applies the shared repair policy: a structurally
// corrupt upload is repaired automatically (the response carries the
// repair summary) unless ?strict=true, which rejects it with 422. Request
// bodies are size-limited, every request runs under a deadline, and the
// remaining deadline is translated into the simulator's event budget so a
// runaway replay of a pathological trace cannot pin a worker forever.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"vppb/internal/cluster"
	"vppb/internal/core"
	"vppb/internal/ingest"
	"vppb/internal/metrics"
	"vppb/internal/sched"
	"vppb/internal/trace"
	"vppb/internal/viz"
	"vppb/internal/vtime"
)

// Config sizes the daemon.
type Config struct {
	// CacheEntries caps the profile cache (0 = DefaultCacheEntries).
	CacheEntries int
	// MaxBodyBytes limits uploaded trace size (0 = 32 MiB).
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline (0 = 30s; negative =
	// none). Clients cannot extend it, only the operator can.
	RequestTimeout time.Duration
	// MaxSimEvents bounds every simulation run for a request, exactly like
	// vppb-sim -max-events (0 = derive from the deadline only).
	MaxSimEvents int64
	// MaxVirtualTime bounds simulated time, like vppb-sim -max-vtime
	// (0 = unlimited).
	MaxVirtualTime vtime.Duration
	// SimEventsPerSecond calibrates the deadline-to-budget mapping: with a
	// deadline D remaining, a simulation may place at most
	// D * SimEventsPerSecond events before it is aborted. 0 selects
	// DefaultSimEventsPerSecond; negative disables the mapping.
	SimEventsPerSecond int64
	// StoreDir roots the durable content-addressed store. Empty keeps the
	// daemon memory-only: a restart forgets every uploaded trace.
	StoreDir string
	// MaxInflight caps simulation-heavy requests running at once
	// (0 = DefaultMaxInflight; negative = unlimited). Requests beyond the
	// cap wait briefly, then are shed with 503 + Retry-After.
	MaxInflight int
	// AdmissionWait bounds how long an over-cap request queues for a slot
	// before being shed (0 = DefaultAdmissionWait; negative = shed
	// immediately). The request deadline bounds the wait further.
	AdmissionWait time.Duration
	// BreakerFailures trips the per-digest circuit breaker after this many
	// consecutive simulation failures (0 = DefaultBreakerFailures;
	// negative = breaker disabled).
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker fast-fails requests
	// for its digest before admitting a probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Middleware, when set, wraps every instrumented handler inside the
	// admission and panic-recovery layers. The chaos harness injects
	// handler faults here; a panicking middleware is recovered, counted in
	// vppb_panics_total and answered with 500 like any handler panic.
	Middleware func(http.Handler) http.Handler

	// Peers is the cluster membership (host:port per node, this node
	// included). When set, the nodes build identical consistent-hash rings
	// and shard the profile cache by trace digest: a request for a digest
	// owned by a peer is proxied to it, so any node answers any request.
	// Empty keeps the daemon standalone.
	Peers []string
	// Self is this node's own entry in Peers. Required when Peers is set.
	Self string
	// MaxProxyHops bounds forwarding during membership disagreement
	// (0 = DefaultMaxProxyHops). A request at the limit is served locally.
	MaxProxyHops int
	// PeerHTTP is the client used for peer forwarding (nil = a shared
	// keep-alive pool). Tests inject fault-injecting transports here.
	PeerHTTP *http.Client
}

// Defaults for the zero Config.
const (
	DefaultMaxBodyBytes       = 32 << 20
	DefaultRequestTimeout     = 30 * time.Second
	DefaultSimEventsPerSecond = 2_000_000
	DefaultMaxInflight        = 64
	DefaultAdmissionWait      = 100 * time.Millisecond
	DefaultBreakerFailures    = 3
	DefaultBreakerCooldown    = 10 * time.Second
)

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	switch {
	case c.RequestTimeout == 0:
		c.RequestTimeout = DefaultRequestTimeout
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0
	}
	switch {
	case c.SimEventsPerSecond == 0:
		c.SimEventsPerSecond = DefaultSimEventsPerSecond
	case c.SimEventsPerSecond < 0:
		c.SimEventsPerSecond = 0
	}
	switch {
	case c.MaxInflight == 0:
		c.MaxInflight = DefaultMaxInflight
	case c.MaxInflight < 0:
		c.MaxInflight = 0
	}
	switch {
	case c.AdmissionWait == 0:
		c.AdmissionWait = DefaultAdmissionWait
	case c.AdmissionWait < 0:
		c.AdmissionWait = 0
	}
	switch {
	case c.BreakerFailures == 0:
		c.BreakerFailures = DefaultBreakerFailures
	case c.BreakerFailures < 0:
		c.BreakerFailures = 0
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	return c
}

// Server is the prediction service: a profile cache over an optional
// durable store, admission control, a metrics registry, and the HTTP
// handlers. Create one with New and mount Handler on an http.Server.
type Server struct {
	cfg      Config
	cache    *Cache
	store    *Store // nil when Config.StoreDir is empty
	metrics  *Metrics
	adm      *admission  // nil when inflight is unlimited
	breakers *breakerSet // nil when the breaker is disabled
	flights  *flightGroup
	mux      *http.ServeMux

	// Consistent-hash peer layer; all nil/zero when standalone.
	ring     *cluster.Ring
	self     string
	peerHTTP *http.Client
	maxHops  int

	// onSimulate, when set, runs inside every singleflight leader just
	// before it simulates — a test hook for observing (and delaying) the
	// one simulation N collapsed requests share. It receives the leader's
	// request context so a test can park a leader until that request dies.
	onSimulate func(context.Context)
}

// New creates a Server. With a StoreDir configured it opens the durable
// store and runs the startup recovery scan (re-verifying every on-disk
// entry and quarantining corrupt ones) before serving; a store root that
// cannot be created or written is an error, because running without the
// durability the operator asked for would be silent data loss.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:     cfg.withDefaults(),
		cache:   NewCache(cfg.CacheEntries),
		metrics: NewMetrics(),
	}
	s.adm = newAdmission(s.cfg.MaxInflight, s.cfg.AdmissionWait)
	s.breakers = newBreakerSet(s.cfg.BreakerFailures, s.cfg.BreakerCooldown)
	s.flights = newFlightGroup(func() { s.metrics.SingleflightShared().Add(1) })
	if s.cfg.StoreDir != "" {
		store, err := OpenStore(s.cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		if _, err := store.Recover(); err != nil {
			return nil, err
		}
		s.store = store
		// Fault-ins re-run the lenient ingestion pipeline: the store holds
		// the original upload bytes, so the repair verdict (and therefore
		// strict-mode rejection) is recomputed identically after a restart.
		s.cache.AttachStore(store, func(digest string, raw []byte) (*Entry, error) {
			e, herr := s.ingest(raw, digest, false)
			if herr != nil {
				return nil, herr
			}
			return e, nil
		})
	}
	if err := s.initCluster(); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	// Every trace-addressed route goes through the digest-ownership proxy
	// (a no-op for a standalone daemon); observability routes are local by
	// definition.
	s.route("/v1/predict", true, s.proxied(s.handlePredict))
	s.route("/v1/optimize", true, s.proxied(s.handleOptimize))
	s.route("/v1/bounds", true, s.proxied(s.handleBounds))
	s.route("/v1/lockorder", true, s.proxied(s.handleLockOrder))
	s.route("/v1/view.svg", true, s.proxied(s.handleViewSVG))
	s.route("/v1/view.html", true, s.proxied(s.handleViewHTML))
	s.route("/metrics", false, s.handleMetrics)
	s.route("/healthz", false, s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the profile cache (for tests and operational tooling).
func (s *Server) Cache() *Cache { return s.cache }

// Store exposes the durable store, or nil for a memory-only daemon.
func (s *Server) Store() *Store { return s.store }

// Metrics exposes the metrics registry (for tests and the chaos harness).
func (s *Server) Metrics() *Metrics { return s.metrics }

// BreakerTrips reports how often a per-digest circuit breaker has tripped
// (0 when the breaker is disabled).
func (s *Server) BreakerTrips() int64 {
	if s.breakers == nil {
		return 0
	}
	return s.breakers.tripsTotal()
}

// route mounts a handler behind the robustness and instrumentation
// middleware: inflight gauge, per-request deadline, admission control on
// simulation-heavy routes (gated), panic recovery, the optional injected
// Config.Middleware, latency histogram, and the per-route request counter
// labelled with the route pattern (not the raw URL, which would explode
// the label cardinality). Ungated routes (/metrics, /healthz) skip
// admission so the daemon stays observable under overload.
func (s *Server) route(pattern string, gated bool, h func(http.ResponseWriter, *http.Request) int) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Inflight().Add(1)
		defer s.metrics.Inflight().Add(-1)
		start := time.Now()
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		if gated && s.adm != nil {
			release, ok := s.adm.acquire(ctx)
			if !ok {
				s.metrics.Shed().Add(1)
				code := writeError(w, errShed(http.StatusServiceUnavailable,
					"server at capacity (%d requests in flight); retry after backoff", s.cfg.MaxInflight))
				s.metrics.ObserveRequest(pattern, code, time.Since(start).Seconds())
				return
			}
			defer release()
		}
		var code int
		var inner http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			code = h(w, r)
		})
		if s.cfg.Middleware != nil {
			inner = s.cfg.Middleware(inner)
		}
		func() {
			// A panicking handler must cost one request, not the process:
			// convert it to a 500 and count it. If the handler already
			// started the response the error write is best-effort, but the
			// connection still closes instead of the daemon.
			defer func() {
				if p := recover(); p != nil {
					s.metrics.Panics().Add(1)
					code = writeError(w, errf(http.StatusInternalServerError, "internal error: handler panicked: %v", p))
				}
			}()
			inner.ServeHTTP(w, r.WithContext(ctx))
		}()
		s.metrics.ObserveRequest(pattern, code, time.Since(start).Seconds())
	})
}

// httpError is a handler failure with its HTTP status. retryAfterSec > 0
// stamps a Retry-After header so well-behaved clients (internal/serveclient)
// back off instead of hammering an overloaded daemon.
type httpError struct {
	code          int
	msg           string
	retryAfterSec int
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errShed is errf plus a one-second Retry-After, for load-shedding and
// breaker rejections.
func errShed(code int, format string, args ...any) *httpError {
	e := errf(code, format, args...)
	e.retryAfterSec = 1
	return e
}

// writeError emits the {"error": ...} body and returns the status code for
// the request counter.
func writeError(w http.ResponseWriter, e *httpError) int {
	w.Header().Set("Content-Type", "application/json")
	if e.retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfterSec))
	}
	w.WriteHeader(e.code)
	body, _ := json.Marshal(map[string]string{"error": e.msg})
	w.Write(append(body, '\n'))
	return e.code
}

// simError maps a simulation or analysis failure to an HTTP status: a
// blown deadline is 504, everything else (deadlocked replay, exhausted
// operator-configured budget, unprofilable recording) is the client's
// trace and gets 422.
func simError(err error) *httpError {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return deadlineExceededError()
	}
	return errf(http.StatusUnprocessableEntity, "%v", err)
}

// deadlineExceededError is the one 504 body every deadline path produces
// — the direct simulation path, a singleflight follower whose context
// expires while waiting, and a deadline-derived budget exhaustion must
// all be indistinguishable to the client.
func deadlineExceededError() *httpError {
	return errf(http.StatusGatewayTimeout, "deadline exceeded before all simulations finished")
}

// mapSimFailure is simError plus the deadline-derived budget case: when
// the event budget that blew was computed from the request's remaining
// deadline (not configured by the operator), the honest verdict is "you
// ran out of time" (504), not "your trace is unprocessable" (422) — the
// same recording simulates fine under a healthier deadline.
func mapSimFailure(err error, deadlineBudget bool) *httpError {
	var be *core.BudgetError
	if deadlineBudget && errors.As(err, &be) && be.Kind == "events" {
		return deadlineExceededError()
	}
	return simError(err)
}

// resolveEntry produces the cached entry for a request: via ?trace=digest
// for a previously ingested recording (from memory or faulted back in
// from the durable store), or by ingesting the request body. The boolean
// reports whether the server already had the trace — the client did not
// have to upload it.
func (s *Server) resolveEntry(w http.ResponseWriter, r *http.Request, strict bool) (*Entry, bool, *httpError) {
	if digest := r.URL.Query().Get("trace"); digest != "" {
		e, ok := s.cache.Load(digest)
		if !ok {
			return nil, false, errf(http.StatusNotFound, "unknown trace digest %s (upload it first)", digest)
		}
		if strict && e.Repaired {
			return nil, false, errf(http.StatusUnprocessableEntity, "trace %s required repair (%s) and strict=true refuses repaired input", digest, e.RepairSummary)
		}
		return e, true, nil
	}

	u, herr := s.readUpload(w, r)
	if herr != nil {
		return nil, false, herr
	}
	if len(u.raw) == 0 {
		return nil, false, errf(http.StatusBadRequest, "upload a recorded log in the request body or pass ?trace=<digest>")
	}

	if e, ok := s.cache.Get(u.digest); ok {
		if strict && e.Repaired {
			return nil, false, errf(http.StatusUnprocessableEntity, "corrupt log rejected by strict=true (would be repaired: %s)", e.RepairSummary)
		}
		return e, true, nil
	}

	e, herr := s.ingest(u.raw, u.digest, strict)
	if herr != nil {
		return nil, false, herr
	}
	// Persist before publishing: when the response reaches the client the
	// upload has survived the daemon. A failed durability write degrades
	// to memory-only service for this entry — counted, never fatal.
	if s.store != nil {
		if err := s.store.Put(u.digest, u.raw); err != nil {
			s.store.notePutError()
		}
	}
	return s.cache.Add(e), false, nil
}

// ingest runs the upload pipeline on raw bytes whose digest the caller
// computed: parse, build the immutable profile, and auto-repair (unless
// strict) when the log fails validation. It is shared by fresh uploads and
// durable-store fault-ins, so an entry rebuilt after a restart gets the
// exact same repair verdict as the original upload.
func (s *Server) ingest(raw []byte, digest string, strict bool) (*Entry, *httpError) {
	// The format is sniffed from the bytes themselves: native vppb
	// recordings and Go runtime execution traces are both accepted, and
	// anything else is a 400 counted per format in the ingest-error metric.
	// The digest is always computed over the raw uploaded bytes, so
	// content addressing, durability and replay-by-digest are format-blind.
	format := ingest.Detect(raw)
	if format == "" {
		s.metrics.IngestError("unknown")
		return nil, errf(http.StatusBadRequest, "unrecognized trace format: want a vppb log or a Go execution trace")
	}
	log, err := ingest.Decode(raw, format, "")
	if err != nil {
		s.metrics.IngestError(format)
		return nil, errf(http.StatusBadRequest, "invalid %s trace: %v", format, err)
	}
	e := &Entry{Digest: digest, Size: len(raw)}
	// BuildProfile validates first, so a clean log is validated once; only
	// a validation failure takes the repair path.
	prof, err := trace.BuildProfile(log)
	var verr *trace.ValidationError
	if errors.As(err, &verr) {
		if strict {
			return nil, errf(http.StatusUnprocessableEntity, "corrupt log rejected by strict=true: %v", verr)
		}
		repaired, rep, rerr := trace.Repair(log)
		if rerr != nil {
			return nil, errf(http.StatusUnprocessableEntity, "unrecoverable log: %v", rerr)
		}
		log = repaired
		e.Repaired = true
		e.RepairSummary = rep.Summary()
		prof, err = trace.BuildProfile(log)
	}
	if err != nil {
		return nil, errf(http.StatusUnprocessableEntity, "%v", err)
	}
	e.Log = log
	e.Profile = prof
	return e, nil
}

// machineFor builds the base machine of a request: the policy, the
// operator-configured budgets, and the remaining request deadline mapped
// to an event budget (remaining seconds x SimEventsPerSecond). Simulated
// virtual time is decoupled from wall time, so the event budget — not a
// wall-clock check — is what actually stops a runaway replay.
//
// The boolean reports whether the effective event budget came from the
// deadline rather than the operator's MaxSimEvents. The distinction
// decides the failure's HTTP status: exhausting a deadline-derived budget
// means the request ran out of time (504), exhausting an operator budget
// means the trace is too big for this deployment (422).
func (s *Server) machineFor(ctx context.Context, policy string) (core.Machine, bool) {
	m := core.Machine{
		Policy:         policy,
		MaxSimEvents:   s.cfg.MaxSimEvents,
		MaxVirtualTime: s.cfg.MaxVirtualTime,
	}
	deadlineBudget := false
	if deadline, ok := ctx.Deadline(); ok && s.cfg.SimEventsPerSecond > 0 {
		remaining := time.Until(deadline).Seconds()
		if remaining < 0 {
			remaining = 0
		}
		derived := int64(remaining*float64(s.cfg.SimEventsPerSecond)) + 1
		if m.MaxSimEvents == 0 || derived < m.MaxSimEvents {
			m.MaxSimEvents = derived
			deadlineBudget = true
		}
	}
	return m, deadlineBudget
}

// simulateAll fans the machines out over the bounded worker pool, keeping
// the simulation queue-depth gauge current. It consults the per-digest
// circuit breaker first: a trace whose replays keep failing fast-fails
// with 503 until the cooldown admits a probe, so one poisonous digest
// cannot repeatedly burn full event budgets.
func (s *Server) simulateAll(ctx context.Context, e *Entry, machines []core.Machine, deadlineBudget bool) ([]*core.Result, *httpError) {
	if s.breakers != nil && !s.breakers.allow(e.Digest) {
		return nil, errShed(http.StatusServiceUnavailable,
			"circuit breaker open for trace %s after repeated simulation failures; retry later", e.Digest)
	}
	s.metrics.SimQueue().Add(int64(len(machines)))
	defer s.metrics.SimQueue().Add(-int64(len(machines)))
	results, err := core.SimulateManyCtx(ctx, e.Profile, machines)
	if s.breakers != nil {
		s.breakers.record(e.Digest, err == nil)
	}
	if err != nil {
		return nil, mapSimFailure(err, deadlineBudget)
	}
	return results, nil
}

// Query-parameter parsing, mirroring the CLI contract.

func parseStrict(r *http.Request) (bool, *httpError) {
	v := r.URL.Query().Get("strict")
	if v == "" {
		return false, nil
	}
	strict, err := strconv.ParseBool(v)
	if err != nil {
		return false, errf(http.StatusBadRequest, "strict wants a boolean, got %q", v)
	}
	return strict, nil
}

func parsePolicy(r *http.Request) (string, *httpError) {
	policy := r.URL.Query().Get("policy")
	if _, err := sched.New(policy); err != nil {
		return "", errf(http.StatusBadRequest, "policy: %v", err)
	}
	return policy, nil
}

// Every simulated CPU costs the simulator memory and time, so a query
// may ask for at most MaxCPUs CPUs per machine and MaxCPUCounts machine
// sizes per request.
const (
	MaxCPUs      = 1024
	MaxCPUCounts = 64
)

func parseCPUList(r *http.Request) ([]int, *httpError) {
	spec := r.URL.Query().Get("cpus")
	if spec == "" {
		spec = "1,2,4,8"
	}
	parts := strings.Split(spec, ",")
	if len(parts) > MaxCPUCounts {
		return nil, errf(http.StatusBadRequest, "cpus lists %d CPU counts, the limit is %d", len(parts), MaxCPUCounts)
	}
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, errf(http.StatusBadRequest, "cpus wants positive CPU counts, got %q", part)
		}
		if n > MaxCPUs {
			return nil, errf(http.StatusBadRequest, "cpus %d exceeds the limit of %d CPUs", n, MaxCPUs)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseInt(r *http.Request, name string, def, min int) (int, *httpError) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min {
		return 0, errf(http.StatusBadRequest, "%s wants an integer >= %d, got %q", name, min, v)
	}
	return n, nil
}

// entryHeaders stamps the content address and cache verdict on a
// response. The verdict lives in a header, not the body, so repeated
// requests stay byte-identical.
func entryHeaders(w http.ResponseWriter, e *Entry, cached bool) {
	w.Header().Set("X-Vppb-Trace", e.Digest)
	if cached {
		w.Header().Set("X-Vppb-Cache", "hit")
	} else {
		w.Header().Set("X-Vppb-Cache", "miss")
	}
}

func writeJSON(w http.ResponseWriter, v any) int {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return writeError(w, errf(http.StatusInternalServerError, "encoding response: %v", err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
	return http.StatusOK
}

// jsonFloat marshals NaN (a degenerate speed-up, see metrics.Speedup) as
// null instead of failing the whole encode.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// predictResponse is the deterministic JSON body of /v1/predict.
type predictResponse struct {
	Trace         string       `json:"trace"`
	Program       string       `json:"program"`
	RecordedUS    int64        `json:"recorded_us"`
	Policy        string       `json:"policy"`
	Repaired      bool         `json:"repaired"`
	RepairSummary string       `json:"repair_summary,omitempty"`
	Predictions   []prediction `json:"predictions"`
}

type prediction struct {
	CPUs        int       `json:"cpus"`
	PredictedUS int64     `json:"predicted_us"`
	Speedup     jsonFloat `json:"speedup"`
	Events      int64     `json:"events"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, errf(http.StatusMethodNotAllowed, "POST a recorded log (or POST with ?trace=<digest>)"))
	}
	strict, herr := parseStrict(r)
	if herr != nil {
		return writeError(w, herr)
	}
	policy, herr := parsePolicy(r)
	if herr != nil {
		return writeError(w, herr)
	}
	sizes, herr := parseCPUList(r)
	if herr != nil {
		return writeError(w, herr)
	}
	e, cached, herr := s.resolveEntry(w, r, strict)
	if herr != nil {
		return writeError(w, herr)
	}

	resolved := policy
	if resolved == "" {
		resolved = sched.Default
	}
	// Concurrent identical requests (same trace, policy and CPU grid)
	// collapse into one simulation; followers share the leader's response.
	key := flightKey(e.Digest, resolved, sizes)
	resp, herr, _ := s.flights.do(r.Context(), key, func() (*predictResponse, *httpError) {
		return s.predict(r.Context(), e, resolved, policy, sizes)
	})
	if herr != nil {
		return writeError(w, herr)
	}
	entryHeaders(w, e, cached)
	return writeJSON(w, resp)
}

// flightKey identifies a prediction for singleflight collapsing.
func flightKey(digest, policy string, sizes []int) string {
	var b strings.Builder
	b.WriteString(digest)
	b.WriteByte('|')
	b.WriteString(policy)
	for _, c := range sizes {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// predict runs the simulations of one /v1/predict request and assembles
// the response body — the work a singleflight leader does once for every
// collapsed request.
func (s *Server) predict(ctx context.Context, e *Entry, resolved, policy string, sizes []int) (*predictResponse, *httpError) {
	if s.onSimulate != nil {
		s.onSimulate(ctx)
	}
	// Machine 0 is the uniprocessor baseline every speed-up divides by;
	// the requested sizes follow in input order. The body reads only
	// durations and event counts, which DiscardTimeline leaves
	// byte-identical, so no timeline is built.
	base, deadlineBudget := s.machineFor(ctx, policy)
	base.DiscardTimeline = true
	machines := make([]core.Machine, 0, len(sizes)+1)
	machines = append(machines, base.Uniprocessor())
	for _, cpus := range sizes {
		m := base
		m.CPUs = cpus
		machines = append(machines, m)
	}
	results, herr := s.simulateAll(ctx, e, machines, deadlineBudget)
	if herr != nil {
		return nil, herr
	}
	uni := results[0]

	resp := &predictResponse{
		Trace:         e.Digest,
		Program:       e.Log.Header.Program,
		RecordedUS:    int64(e.Log.Duration()),
		Policy:        resolved,
		Repaired:      e.Repaired,
		RepairSummary: e.RepairSummary,
		Predictions:   make([]prediction, 0, len(sizes)),
	}
	for i, cpus := range sizes {
		res := results[i+1]
		resp.Predictions = append(resp.Predictions, prediction{
			CPUs:        cpus,
			PredictedUS: int64(res.Duration),
			Speedup:     jsonFloat(metrics.Speedup(uni.Duration, res.Duration)),
			Events:      res.Events,
		})
	}
	return resp, nil
}

func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) int {
	return s.handleHB(w, r, func(e *Entry, topN int) (any, error) {
		a, err := e.HB()
		if err != nil {
			return nil, err
		}
		return a.JSONBounds(topN), nil
	})
}

func (s *Server) handleLockOrder(w http.ResponseWriter, r *http.Request) int {
	return s.handleHB(w, r, func(e *Entry, topN int) (any, error) {
		a, err := e.HB()
		if err != nil {
			return nil, err
		}
		return a.JSONLockOrder(), nil
	})
}

func (s *Server) handleHB(w http.ResponseWriter, r *http.Request, report func(*Entry, int) (any, error)) int {
	strict, herr := parseStrict(r)
	if herr != nil {
		return writeError(w, herr)
	}
	topN, herr := parseInt(r, "top", 10, 1)
	if herr != nil {
		return writeError(w, herr)
	}
	e, cached, herr := s.resolveEntry(w, r, strict)
	if herr != nil {
		return writeError(w, herr)
	}
	body, err := report(e, topN)
	if err != nil {
		return writeError(w, simError(err))
	}
	entryHeaders(w, e, cached)
	return writeJSON(w, body)
}

func (s *Server) handleViewSVG(w http.ResponseWriter, r *http.Request) int {
	return s.handleView(w, r, "image/svg+xml", func(v *viz.View, title string, width int) (string, error) {
		return viz.RenderSVG(v, viz.SVGOptions{Title: title, Width: width}), nil
	})
}

func (s *Server) handleViewHTML(w http.ResponseWriter, r *http.Request) int {
	return s.handleView(w, r, "text/html; charset=utf-8", func(v *viz.View, title string, _ int) (string, error) {
		return viz.RenderHTML(v, viz.HTMLOptions{Title: title})
	})
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request, contentType string, render func(*viz.View, string, int) (string, error)) int {
	strict, herr := parseStrict(r)
	if herr != nil {
		return writeError(w, herr)
	}
	policy, herr := parsePolicy(r)
	if herr != nil {
		return writeError(w, herr)
	}
	cpus, herr := parseInt(r, "cpus", 2, 1)
	if herr == nil && cpus > MaxCPUs {
		herr = errf(http.StatusBadRequest, "cpus %d exceeds the limit of %d CPUs", cpus, MaxCPUs)
	}
	if herr != nil {
		return writeError(w, herr)
	}
	// Below MinSVGWidth the margins leave no plot area.
	width, herr := parseInt(r, "width", 0, viz.MinSVGWidth)
	if herr != nil {
		return writeError(w, herr)
	}
	e, cached, herr := s.resolveEntry(w, r, strict)
	if herr != nil {
		return writeError(w, herr)
	}
	m, deadlineBudget := s.machineFor(r.Context(), policy)
	m.CPUs = cpus
	results, herr := s.simulateAll(r.Context(), e, []core.Machine{m}, deadlineBudget)
	if herr != nil {
		return writeError(w, herr)
	}
	view, err := viz.NewView(results[0].Timeline)
	if err != nil {
		return writeError(w, errf(http.StatusInternalServerError, "%v", err))
	}
	title := fmt.Sprintf("%s on %d simulated CPUs", e.Log.Header.Program, cpus)
	doc, err := render(view, title, width)
	if err != nil {
		return writeError(w, errf(http.StatusInternalServerError, "%v", err))
	}
	entryHeaders(w, e, cached)
	w.Header().Set("Content-Type", contentType)
	io.WriteString(w, doc)
	return http.StatusOK
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, s.cache, s.store, s.BreakerTrips())
	return http.StatusOK
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
	return http.StatusOK
}
