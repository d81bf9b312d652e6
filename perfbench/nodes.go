package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"vppb/internal/serve"
)

// nodes is a set of in-process vppb-serve daemons on loopback listeners.
// With more than one node they form a static consistent-hash ring.
// Nodes are memory-only: the durable store's fsync timing on a shared
// disk is not steady enough to benchmark.
type nodes struct {
	addrs   []string
	servers []*http.Server
	wg      sync.WaitGroup
}

func startNodes(n, cacheEntries int) (*nodes, error) {
	c := &nodes{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	for i, ln := range lns {
		cfg := serve.Config{CacheEntries: cacheEntries}
		if n > 1 {
			cfg.Peers = c.addrs
			cfg.Self = c.addrs[i]
		}
		s, err := serve.New(cfg)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		hs := &http.Server{Handler: s.Handler()}
		c.servers = append(c.servers, hs)
		c.wg.Add(1)
		go func(ln net.Listener) {
			defer c.wg.Done()
			hs.Serve(ln)
		}(ln)
	}
	return c, nil
}

// close stops every node and waits for their serve loops to return.
func (c *nodes) close() {
	for _, hs := range c.servers {
		hs.Close()
	}
	c.wg.Wait()
}

// counters are the /metrics totals the benchmark reads, summed over nodes.
type counters struct {
	hits, misses, shed, shared       float64
	forwarded, optSimulated, optPrun float64
}

func (a counters) sub(b counters) counters {
	return counters{
		hits: a.hits - b.hits, misses: a.misses - b.misses, shed: a.shed - b.shed,
		shared: a.shared - b.shared, forwarded: a.forwarded - b.forwarded,
		optSimulated: a.optSimulated - b.optSimulated, optPrun: a.optPrun - b.optPrun,
	}
}

// scrape reads every node's /metrics and sums the counters.
func (c *nodes) scrape(client *http.Client) (counters, error) {
	var t counters
	for _, addr := range c.addrs {
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			return t, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			switch name {
			case "vppb_profile_cache_hits_total":
				t.hits += v
			case "vppb_profile_cache_misses_total":
				t.misses += v
			case "vppb_shed_total":
				t.shed += v
			case "vppb_singleflight_shared_total":
				t.shared += v
			case "vppb_proxy_forwarded_total":
				t.forwarded += v
			case "vppb_optimize_simulated_total":
				t.optSimulated += v
			case "vppb_optimize_pruned_total":
				t.optPrun += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return t, fmt.Errorf("scrape %s: %w", addr, err)
		}
	}
	return t, nil
}
