package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// fingerprint renders the first operations of a plan's sequence, body
// digests included, as comparable strings.
func fingerprint(t *testing.T, p *plan, n int) []string {
	t.Helper()
	var out []string
	for i := -len(p.pattern); i < n; i++ {
		o := p.op(i)
		out = append(out, fmt.Sprintf("%d node=%d session=%v trace=%s cpus=%s policy=%s tag=%s body=%s",
			o.index, o.node, o.session, o.trace, o.cpus, o.policy, o.body.tag, o.body.digest()))
	}
	return out
}

func TestPlanDeterministic(t *testing.T) {
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			a, err := newPlan(sp, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := newPlan(sp, 7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := newPlan(sp, 8)
			if err != nil {
				t.Fatal(err)
			}
			fa, fb, fc := fingerprint(t, a, 40), fingerprint(t, b, 40), fingerprint(t, c, 40)
			same := 0
			for i := range fa {
				if fa[i] != fb[i] {
					t.Fatalf("seed 7 twice: op %d differs:\n%s\n%s", i, fa[i], fb[i])
				}
				if fa[i] == fc[i] {
					same++
				}
			}
			if same > 0 {
				t.Errorf("seeds 7 and 8 share %d of %d operations", same, len(fa))
			}
		})
	}
}

// TestBodiesDistinct checks the cold-upload contract: no two bodies of a
// run, warm-up included, have the same content address.
func TestBodiesDistinct(t *testing.T) {
	p, err := newPlan(specs["cold-upload"], 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := -len(p.pattern); i < 60; i++ {
		d := p.op(i).body.digest()
		if j, dup := seen[d]; dup {
			t.Fatalf("ops %d and %d upload identical bytes", j, i)
		}
		seen[d] = i
	}
}

// TestTruncatedBodiesNeedRepair checks that every truncated base fails
// validation and replays once repaired, so the daemon answers 200 with
// repaired: true.
func TestTruncatedBodiesNeedRepair(t *testing.T) {
	p, err := newPlan(specs["session"], 5)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for bi, b := range p.bases {
		if !b.trunc {
			continue
		}
		n++
		e, err := ingestLayers(p.baseBody(bi).bytes(), nil, 0, -1)
		if err != nil {
			t.Fatalf("base %d: %v", bi, err)
		}
		if !e.repaired {
			t.Errorf("base %d: truncated body validated without repair", bi)
		}
	}
	if n == 0 {
		t.Fatal("session plan has no truncated bases")
	}
}

// TestRunShortTraced drives the whole benchmark once, briefly: set-up,
// the untraced and the traced loop, the checks, and the result line.
func TestRunShortTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and runs for several seconds")
	}
	// Span dumps go under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errs strings.Builder
	code := run([]string{"--workload", "warm-repeat", "--seed", "4", "--seconds", "2", "--trace", "1"}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	for _, name := range []string{"core.simulate.ns_per_event", "cluster.forwarded_ratio", "bench.tracing_overhead.pct"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("no metric %s", name)
		}
	}
}
