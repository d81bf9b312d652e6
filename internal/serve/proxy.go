package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"vppb/internal/cluster"
)

// Peer-proxy headers. The hop counter rides requests between nodes; the
// peer attribution rides responses back to the client.
const (
	// HeaderPeer names the cluster node that actually served a proxied
	// response, so clients (and the load generator) can see where a
	// request landed. Absent on responses the receiving node served
	// itself.
	HeaderPeer = "X-Vppb-Peer"
	// HeaderHops counts proxy forwards a request has taken. Every node in
	// a healthy cluster computes the same ring, so a forwarded request
	// arrives at a node that considers itself the owner and the count
	// never exceeds 1 — but during a membership change two nodes can
	// briefly disagree, and without the guard they would bounce the
	// request until both deadlines expire.
	HeaderHops = "X-Vppb-Hops"
)

// DefaultMaxProxyHops bounds request forwarding. One hop suffices when
// every node agrees on the membership; the allowance above 1 lets a
// request settle during a brief disagreement instead of failing.
const DefaultMaxProxyHops = 3

// defaultPeerClient is the HTTP client nodes use to talk to each other:
// keep-alive pooling per peer, no client-level timeout (the request
// context carries the deadline).
var defaultPeerClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: 16,
	IdleConnTimeout:     90 * time.Second,
}}

// initCluster wires the consistent-hash peer layer from the Config, or
// leaves the server standalone when no membership was given.
func (s *Server) initCluster() error {
	if len(s.cfg.Peers) == 0 {
		if s.cfg.Self != "" {
			return errors.New("serve: Self is set but Peers is empty; a one-node cluster lists itself")
		}
		return nil
	}
	if s.cfg.Self == "" {
		return errors.New("serve: Peers is set but Self is empty; every node must name itself in the membership")
	}
	ring, err := cluster.New(s.cfg.Peers, cluster.Options{})
	if err != nil {
		return err
	}
	if !ring.Has(s.cfg.Self) {
		return errors.New("serve: Self " + s.cfg.Self + " is not in Peers; ownership would silently exclude this node")
	}
	s.ring = ring
	s.self = s.cfg.Self
	s.peerHTTP = s.cfg.PeerHTTP
	if s.peerHTTP == nil {
		s.peerHTTP = defaultPeerClient
	}
	s.maxHops = s.cfg.MaxProxyHops
	if s.maxHops <= 0 {
		s.maxHops = DefaultMaxProxyHops
	}
	return nil
}

// proxied wraps a trace-addressed handler with digest-ownership routing:
// a request whose digest the ring assigns to a peer is forwarded there
// over the ordinary HTTP contract, so any node answers any request while
// each digest's profile is ingested, cached and simulated on exactly one
// node. Forwarding is invisible to the handler — when the node owns the
// digest (or runs standalone), h runs as if the cluster didn't exist.
//
// Failure policy: an unreachable owner degrades to local service (the
// non-owner ingests and simulates itself — slower and cache-polluting,
// but correct, because every node runs the same deterministic pipeline),
// while a reachable owner's response is authoritative whatever its
// status. The hop-count guard breaks forwarding loops during membership
// disagreement by serving locally once the budget is spent.
func (s *Server) proxied(h func(http.ResponseWriter, *http.Request) int) func(http.ResponseWriter, *http.Request) int {
	return func(w http.ResponseWriter, r *http.Request) int {
		if s.ring == nil {
			return h(w, r)
		}
		hops := 0
		if v := r.Header.Get(HeaderHops); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return writeError(w, errf(http.StatusBadRequest, "%s wants a non-negative integer, got %q", HeaderHops, v))
			}
			hops = n
		}
		if hops >= s.maxHops {
			s.metrics.ProxyLoops().Add(1)
			return h(w, r)
		}
		// The digest the request is about: the explicit ?trace= reference,
		// or that of the uploaded body. A body is read and hashed here,
		// once; the local handler takes both from the request context. raw
		// stays nil for ?trace= requests, so the forwarded request keeps
		// the cheap digest-only form.
		digest := r.URL.Query().Get("trace")
		var raw []byte
		if digest == "" {
			u, herr := s.readUpload(w, r)
			if herr != nil {
				return writeError(w, herr)
			}
			r = r.WithContext(context.WithValue(r.Context(), uploadKey{}, u))
			digest, raw = u.digest, u.raw
		}
		if digest == "" {
			// No trace reference and no body: let the handler produce its
			// ordinary error.
			return h(w, r)
		}
		owner := s.ring.Owner(digest)
		if owner == s.self {
			return h(w, r)
		}
		if code, ok := s.forward(w, r, owner, raw, hops); ok {
			s.metrics.ProxyForwarded(owner)
			return code
		}
		s.metrics.ProxyDegraded().Add(1)
		// The owner is down; serve locally under this node's own cache and
		// budgets, from the body already in the request context.
		return h(w, r)
	}
}

// upload is a request body, read under the upload size limit, and its
// digest ("" for an empty body).
type upload struct {
	raw    []byte
	digest string
}

// uploadKey carries the upload the proxy layer already read to the local
// handler, so a body is read and hashed once per request.
type uploadKey struct{}

// readUpload returns the request's upload: the one the proxy layer stored
// in the request context, or else the body, read and hashed now.
func (s *Server) readUpload(w http.ResponseWriter, r *http.Request) (upload, *httpError) {
	if u, ok := r.Context().Value(uploadKey{}).(upload); ok {
		return u, nil
	}
	raw, herr := readBody(w, r, s.cfg.MaxBodyBytes)
	if herr != nil {
		return upload{}, herr
	}
	u := upload{raw: raw}
	if len(raw) > 0 {
		u.digest = Digest(raw)
	}
	return u, nil
}

// forward relays the request to the digest's owner and streams the
// response back. The boolean reports whether the owner answered at all —
// false means a transport-level failure (connection refused, reset,
// deadline dialing) and the caller should degrade to local service. Any
// HTTP response, including an error status, is relayed as authoritative:
// the owner is the node with the cache, the durable store and the
// breaker state for this digest, so its verdict is the cluster's.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, owner string, raw []byte, hops int) (int, bool) {
	var body io.Reader
	if raw != nil {
		body = bytes.NewReader(raw)
	}
	u := "http://" + owner + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, body)
	if err != nil {
		return 0, false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(HeaderHops, strconv.Itoa(hops+1))
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		// The client's own context expiring mid-forward is not an owner
		// failure; degrading would burn a full local simulation budget on
		// a request that is already dead.
		if r.Context().Err() != nil {
			writeError(w, simError(r.Context().Err()))
			return http.StatusGatewayTimeout, true
		}
		return 0, false
	}
	// Drain whatever the relay below doesn't, so the keep-alive connection
	// to the peer returns to the pool instead of leaking per miss.
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	for _, hdr := range []string{"Content-Type", "X-Vppb-Trace", "X-Vppb-Cache", "Retry-After"} {
		if v := resp.Header.Get(hdr); v != "" {
			w.Header().Set(hdr, v)
		}
	}
	// Attribute the response to the node that served it. On a multi-hop
	// relay the deepest forwarder already named the terminal node; keep it.
	peer := resp.Header.Get(HeaderPeer)
	if peer == "" {
		peer = owner
	}
	w.Header().Set(HeaderPeer, peer)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.StatusCode, true
}

// readBody reads a request body under the upload size limit, mapping the
// oversize and transport failures exactly like the ingestion path. A body
// whose Content-Length is known and within the limit ends up in one buffer
// of exactly that size (see readSized), instead of one grown by repeated
// copying.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *httpError) {
	body := http.MaxBytesReader(w, r.Body, limit)
	var raw []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= limit {
		raw, err = readSized(body, int(n))
	} else {
		raw, err = io.ReadAll(body)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(http.StatusRequestEntityTooLarge, "trace exceeds the %d-byte upload limit", tooBig.Limit)
		}
		return nil, errf(http.StatusBadRequest, "reading request body: %v", err)
	}
	return raw, nil
}

// readChunk bounds how much of an announced length readSized allocates
// before any of it has arrived. A client that announces a large body and
// then stalls pins at most this much, not the whole announced size.
const readChunk = 1 << 20

// readSized is io.ReadAll for a reader announced to hold size bytes. It
// fills a first chunk of at most readChunk bytes and, once that chunk is
// full, moves to one buffer of the announced size. A shorter stream ends
// early at EOF, like io.ReadAll, and a longer one (a request whose
// ContentLength understates its body) has the rest appended.
func readSized(r io.Reader, size int) ([]byte, error) {
	b := make([]byte, min(size, readChunk))
	n := 0
	for n < size {
		if n == len(b) {
			full := make([]byte, size)
			copy(full, b)
			b = full
		}
		m, err := r.Read(b[n:])
		n += m
		if err == io.EOF {
			return b[:n], nil
		}
		if err != nil {
			return b[:n], err
		}
	}
	rest, err := io.ReadAll(r)
	return append(b, rest...), err
}

// Ring exposes the node's cluster view (nil when standalone) for tests
// and operational tooling.
func (s *Server) Ring() *cluster.Ring { return s.ring }
