package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// client is one closed-loop caller with its own keep-alive connections
// and no retries: a failure must show as a failure.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		// A hung request fails the operation instead of the whole run.
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP exchange as the checker needs it. Small JSON bodies
// are kept; large ones (SVG) are reduced to a length and a CRC while
// being read, so checking them later costs no timed CPU.
type reply struct {
	status int
	body   []byte
	n      int64
	crc    uint32
	digest string // X-Vppb-Trace
	peer   string // X-Vppb-Peer: set when a node forwarded the request
}

// call sends one request and reads the response to its last byte.
func (c *client) call(method, u string, b *body, keep bool) (reply, error) {
	var rd io.Reader
	if b != nil {
		rd = b.reader()
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return reply{}, err
	}
	if b != nil {
		req.ContentLength = b.size()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, digest: resp.Header.Get("X-Vppb-Trace"), peer: resp.Header.Get("X-Vppb-Peer")}
	if keep {
		r.body, err = io.ReadAll(resp.Body)
		r.n = int64(len(r.body))
	} else {
		h := crc32.NewIEEE()
		r.n, err = io.Copy(h, resp.Body)
		r.crc = h.Sum32()
	}
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return r, nil
}

// opResult is one completed operation of the timed sequence.
type opResult struct {
	op      op
	lat     time.Duration
	replies []reply
	err     error // transport failure or an unexpected status
	failed  bool  // set by the checker
}

// runOp executes one operation over HTTP. tr, when non-nil, records an
// "http" span per request under parent.
func runOp(c *client, addrs []string, o op, tr *spanLog, parent int) opResult {
	res := opResult{op: o}
	base := "http://" + addrs[o.node]
	do := func(method, path string, q url.Values, b *body, keep bool) (reply, bool) {
		if q != nil {
			path += "?" + q.Encode()
		}
		id := tr.begin("http", o.index, parent)
		r, err := c.call(method, base+path, b, keep)
		tr.end(id, 0, r.n)
		if err != nil {
			res.err = fmt.Errorf("%s %s: %w", method, path, err)
			return r, false
		}
		res.replies = append(res.replies, r)
		if r.status != http.StatusOK {
			res.err = fmt.Errorf("%s %s: status %d: %.200s", method, path, r.status, r.body)
			return r, false
		}
		return r, true
	}
	t0 := time.Now()
	switch {
	case o.cpus != "": // warm-repeat: prediction by digest
		q := url.Values{"trace": {o.trace}, "cpus": {o.cpus}, "policy": {o.policy}}
		do(http.MethodPost, "/v1/predict", q, nil, true)
	case o.session:
		r, ok := do(http.MethodPost, "/v1/bounds", nil, &o.body, true)
		if !ok {
			break
		}
		tq := url.Values{"trace": {r.digest}}
		if _, ok := do(http.MethodPost, "/v1/optimize", tq, nil, true); !ok {
			break
		}
		if _, ok := do(http.MethodGet, "/v1/lockorder", tq, nil, true); !ok {
			break
		}
		if _, ok := do(http.MethodGet, "/v1/view.svg", url.Values{"trace": {r.digest}, "cpus": {"4"}}, nil, false); !ok {
			break
		}
		do(http.MethodPost, "/v1/predict", tq, nil, true)
	default: // cold-upload
		do(http.MethodPost, "/v1/predict", url.Values{"cpus": {coldGrid}}, &o.body, true)
	}
	res.lat = time.Since(t0)
	return res
}

// coldGrid is the CPU grid of every cold upload.
const coldGrid = "1,2,4,8"

// closedLoop runs clients callers, each sending its next operation only
// after the previous one completed, taking operations in sequence order
// from a shared counter until d has elapsed. traced, when set, wraps each
// operation: it gets the client's span log and the op's root span.
func closedLoop(p *plan, addrs []string, clients int, d time.Duration, traced func(o op, tr *spanLog, root int)) ([]opResult, []*spanLog, time.Duration) {
	var next atomic.Int64
	perClient := make([][]opResult, clients)
	logs := make([]*spanLog, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		if traced != nil {
			logs[ci] = newSpanLog(start)
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			tr := logs[ci]
			for time.Since(start) < d {
				o := p.op(int(next.Add(1) - 1))
				root := tr.begin("op", o.index, -1)
				r := runOp(c, addrs, o, tr, root)
				if traced != nil {
					traced(o, tr, root)
				}
				tr.end(root, 0, 0)
				perClient[ci] = append(perClient[ci], r)
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opResult
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all, logs, elapsed
}
