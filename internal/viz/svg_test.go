package viz

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"

	"vppb/internal/core"
	"vppb/internal/hb"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/vtime"
	"vppb/internal/workloads"
)

// recordedLogs caches one recording per workload for the SVG tests.
var recordedLogs = map[string]*trace.Log{}

func recordedLog(t testing.TB, name string) *trace.Log {
	t.Helper()
	if log, ok := recordedLogs[name]; ok {
		return log
	}
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(workloads.Params{Scale: 0.2}), recorder.Options{Program: name})
	if err != nil {
		t.Fatal(err)
	}
	recordedLogs[name] = log
	return log
}

func simulatedView(t testing.TB, log *trace.Log, cpus int) *View {
	t.Helper()
	res, err := core.Simulate(log, core.Machine{CPUs: cpus})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(res.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// svgCase is one view setting the oracle comparison renders under.
type svgCase struct {
	name string
	opts SVGOptions
	set  func(v *View) error
}

func svgCases(overlay CritOverlay) []svgCase {
	return []svgCase{
		{name: "whole", opts: SVGOptions{Title: `whole <window> & "quotes"`}},
		{name: "zoom", set: func(v *View) error { v.ZoomIn(ZoomCoarse); return nil }},
		{name: "window", set: func(v *View) error {
			start, end := v.Window()
			span := end.Sub(start)
			return v.SetWindow(start.Add(span/3), start.Add(span/2))
		}},
		{name: "compressed", set: func(v *View) error {
			v.SetCompressed(true)
			start, end := v.Window()
			span := end.Sub(start)
			return v.SetWindow(start.Add(span/2), start.Add(span/2+span/50))
		}},
		{name: "select", set: func(v *View) error {
			var ids []trace.ThreadID
			for i, th := range v.Timeline().Threads {
				if i%2 == 0 {
					ids = append(ids, th.Info.ID)
				}
			}
			v.SelectThreads(ids...)
			return nil
		}},
		{name: "overlay", opts: SVGOptions{Overlay: overlay}},
		{name: "width0", opts: SVGOptions{Width: 0}},
		{name: "width400", opts: SVGOptions{Width: 400, LaneHeight: 9, ParallelismHeight: 51}},
		{name: "width1", opts: SVGOptions{Width: 1}},
	}
}

// TestRenderSVGMatchesOracle holds the append renderer to the fmt-based
// one it replaced, byte for byte, over every workload and view setting.
func TestRenderSVGMatchesOracle(t *testing.T) {
	for _, name := range workloads.Names() {
		log := recordedLog(t, name)
		a, err := hb.Analyze(log)
		if err != nil {
			t.Fatal(err)
		}
		cases := svgCases(CritOverlay(a.PathRecords()))
		for _, cpus := range []int{1, 2, 4} {
			res, err := core.Simulate(log, core.Machine{CPUs: cpus})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				v := mustView(t, res.Timeline)
				if c.set != nil {
					if err := c.set(v); err != nil {
						t.Fatalf("%s@%d %s: %v", name, cpus, c.name, err)
					}
				}
				got, want := RenderSVG(v, c.opts), oracleRenderSVG(v, c.opts)
				if got != want {
					t.Errorf("%s@%d %s: output differs from the oracle at byte %d of %d",
						name, cpus, c.name, firstDiff(got, want), len(want))
				}
			}
		}
	}
}

func firstDiff(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRenderSVGAllocs gates the renderer's allocations per recorded event
// on the producer/consumer program, whose 19k events dominate the
// daemon's view traffic.
func TestRenderSVGAllocs(t *testing.T) {
	log := recordedLog(t, "prodcons")
	v := simulatedView(t, log, 4)
	allocs := testing.AllocsPerRun(3, func() { RenderSVG(v, SVGOptions{Title: "prodcons"}) })
	perEvent := allocs / float64(len(log.Events))
	t.Logf("%.0f allocs per render, %.4f per event", allocs, perEvent)
	if perEvent > 0.05 {
		t.Fatalf("RenderSVG made %.4f allocs/event, want <= 0.05", perEvent)
	}
}

var negativeSize = regexp.MustCompile(`(width|height)="-`)

// TestRenderSVGNarrowWidths checks that no width leaves a negative plot:
// RenderSVG raises Width to MinSVGWidth.
func TestRenderSVGNarrowWidths(t *testing.T) {
	v := mustView(t, exampleTimeline(t))
	atMin := RenderSVG(v, SVGOptions{Width: MinSVGWidth})
	for w := 1; w <= 200; w++ {
		svg := RenderSVG(v, SVGOptions{Width: w})
		if m := negativeSize.FindString(svg); m != "" {
			t.Fatalf("width %d: negative size attribute %s", w, m)
		}
		if w < MinSVGWidth && svg != atMin {
			t.Fatalf("width %d: not rendered at MinSVGWidth", w)
		}
	}
}

// FuzzRenderSVG compares the renderer with its oracle on any timeline
// trace.UnmarshalTimeline accepts, under a fuzzed width and zoom.
func FuzzRenderSVG(f *testing.F) {
	for _, tl := range []*trace.Timeline{emptyTimeline(), instantTimeline(), seedTimeline()} {
		data, err := trace.MarshalTimeline(tl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 0, uint8(0))
		f.Add(data, 150, uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, width int, zooms uint8) {
		tl, err := trace.UnmarshalTimeline(data)
		if err != nil {
			return
		}
		v, err := NewView(tl)
		if err != nil {
			return
		}
		for i := 0; i < int(zooms%8); i++ {
			v.ZoomIn(ZoomFine)
		}
		opts := SVGOptions{Width: width % 5000, Title: tl.Program}
		if got, want := RenderSVG(v, opts), oracleRenderSVG(v, opts); got != want {
			t.Fatalf("output differs from the oracle at byte %d of %d", firstDiff(got, want), len(want))
		}
	})
}

// seedTimeline is a small two-thread execution with events of several
// primitive families, a seed for FuzzRenderSVG.
func seedTimeline() *trace.Timeline {
	tl := &trace.Timeline{Program: "seed <&>", CPUs: 2, LWPs: 2, Duration: 900}
	for id := trace.ThreadID(1); id <= 2; id++ {
		th := trace.ThreadTimeline{Info: trace.ThreadInfo{ID: id, Name: fmt.Sprint("t", id)}, Ended: 900}
		cpu := int32(id - 1)
		th.Spans = []trace.Span{
			{Start: 0, End: 300, State: trace.StateRunning, CPU: cpu, LWP: cpu},
			{Start: 300, End: 500, State: trace.StateRunnable, CPU: cpu, LWP: cpu},
			{Start: 500, End: 900, State: trace.StateRunning, CPU: cpu, LWP: cpu},
		}
		for i, c := range []trace.Call{trace.CallMutexLock, trace.CallSemaPost, trace.CallIO, trace.CallThrExit} {
			at := vtime.Time(200 * (i + 1))
			th.Events = append(th.Events, trace.PlacedEvent{Event: trace.Event{Thread: id, Call: c}, Start: at, End: at + 10})
		}
		tl.Threads = append(tl.Threads, th)
	}
	return tl
}

// FuzzAppendTenths holds appendF1 to strconv's %.1f formatting.
func FuzzAppendTenths(f *testing.F) {
	for _, x := range []float64{0, -0.0, 0.05, 0.25, 0.35, 0.75, 1.25, 2.5, 99.95, 123.45, -0.01, 1e14, 9.999999999999998e13, 1e-201, math.MaxFloat64, math.Inf(1), math.NaN()} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if got, want := string(appendF1(nil, x)), strconv.FormatFloat(x, 'f', 1, 64); got != want {
			t.Fatalf("appendF1(%v) = %s, want %s", x, got, want)
		}
	})
}

// TestAppendTenthsMatchesStrconv compares appendF1 with strconv on every
// exact tie q/4, every q/10 + 0.05, and a seeded sample of each binary
// exponent from 2^-40 to the fast path's limit, each with its neighbours.
// FuzzAppendTenths covers the rest of the range.
func TestAppendTenthsMatchesStrconv(t *testing.T) {
	check := func(x float64) {
		for _, v := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)), -x} {
			if got, want := string(appendF1(nil, v)), strconv.FormatFloat(v, 'f', 1, 64); got != want {
				t.Fatalf("appendF1(%v) = %s, want %s", v, got, want)
			}
		}
	}
	for q := 0; q < 40000; q++ {
		check(float64(q) / 4)
		check(float64(q)/10 + 0.05)
	}
	rng := rand.New(rand.NewSource(1))
	for exp := -40; exp <= 47; exp++ {
		for i := 0; i < 1000; i++ {
			check(math.Ldexp(1+rng.Float64(), exp))
		}
	}
}
