package trace_test

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"vppb/internal/faultinject"
	"vppb/internal/gotrace"
	"vppb/internal/recorder"
	"vppb/internal/trace"
	"vppb/internal/workloads"
)

// recordWorkload makes a recording of a registered workload.
func recordWorkload(t testing.TB, name string, prm workloads.Params) *trace.Log {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recorder.Record(w.Bind(prm), recorder.Options{Program: name})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// checkProfile requires BuildProfile and the map-based oracle to agree:
// a reflect.DeepEqual profile, or the identical error text.
func checkProfile(t *testing.T, what string, l *trace.Log) {
	t.Helper()
	got, err := trace.BuildProfile(l)
	want, wantErr := trace.BuildProfileOracle(l)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: BuildProfile error %v, oracle error %v", what, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: profile differs from the oracle", what)
	}
}

// TestIngestMatchesOracles runs every workload, in both encodings, the Go
// trace fixture and fault-injected logs through the decoders and
// BuildProfile, against the line-and-fields reader and the map-based
// profile builder they replaced.
func TestIngestMatchesOracles(t *testing.T) {
	var logs []*trace.Log
	for _, name := range workloads.Names() {
		l := recordWorkload(t, name, workloads.Params{Threads: 4, Scale: 0.2})
		text := trace.AppendText(nil, l)
		fromText, err := trace.Decode(text)
		if err != nil {
			t.Fatalf("%s: text: %v", name, err)
		}
		oracle, err := trace.ReadTextOracle(text)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !reflect.DeepEqual(fromText, oracle) {
			t.Fatalf("%s: decoded text log differs from the oracle", name)
		}
		fromBin, err := trace.Decode(trace.AppendBinary(nil, l))
		if err != nil {
			t.Fatalf("%s: binary: %v", name, err)
		}
		checkProfile(t, name+" text", fromText)
		checkProfile(t, name+" binary", fromBin)
		logs = append(logs, fromText)
	}

	raw, err := os.ReadFile("../gotrace/testdata/go-mutexchan.trace")
	if err != nil {
		t.Fatal(err)
	}
	converted, err := gotrace.Convert(raw, gotrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkProfile(t, "gotrace fixture", converted)

	// Every corruption class, both as injected (BuildProfile must fail
	// exactly like the oracle) and after Repair.
	for _, l := range append(logs, converted) {
		for _, class := range faultinject.Classes() {
			for seed := int64(1); seed <= 3; seed++ {
				bad, _, err := faultinject.Inject(l, class, seed)
				if err != nil {
					continue
				}
				what := l.Header.Program + " " + string(class)
				checkProfile(t, what, bad)
				if repaired, _, err := trace.Repair(bad); err == nil {
					checkProfile(t, what+" repaired", repaired)
				}
			}
		}
	}
}

// allocs measures f's heap allocations and allocated bytes, once, after
// a warm-up call.
func allocs(f func()) (mallocs, bytes float64) {
	f()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// TestDecodeTextAllocs pins the text decoder's per-event cost: it
// allocates per log (the event array, interned names), never per line.
// Comparing two prefixes of one recording cancels the per-log cost.
func TestDecodeTextAllocs(t *testing.T) {
	big := recordWorkload(t, "ocean", workloads.Params{Threads: 4, Scale: 0.2})
	small := *big
	small.Events = big.Events[:len(big.Events)/4]
	cost := func(l *trace.Log) float64 {
		text := trace.AppendText(nil, l)
		n, _ := allocs(func() {
			if _, err := trace.Decode(text); err != nil {
				t.Fatal(err)
			}
		})
		return n
	}
	perEvent := (cost(big) - cost(&small)) / float64(len(big.Events)-len(small.Events))
	t.Logf("text decode: %.4f marginal allocs/event (%d vs %d events)", perEvent, len(big.Events), len(small.Events))
	if perEvent > 0.01 {
		t.Fatalf("text decode allocates per event: %.4f allocs/event", perEvent)
	}
}

// TestBuildProfileBytes pins BuildProfile's per-event memory: the call
// records themselves and one slot index per event, and no per-thread
// copy of the event list.
func TestBuildProfileBytes(t *testing.T) {
	small := recordWorkload(t, "ocean", workloads.Params{Threads: 2, Scale: 0.2})
	big := recordWorkload(t, "ocean", workloads.Params{Threads: 8, Scale: 0.2})
	cost := func(l *trace.Log) float64 {
		_, b := allocs(func() {
			if _, err := trace.BuildProfile(l); err != nil {
				t.Fatal(err)
			}
		})
		return b
	}
	perEvent := (cost(big) - cost(small)) / float64(len(big.Events)-len(small.Events))
	t.Logf("BuildProfile: %.1f marginal B/event (%d vs %d events)", perEvent, len(big.Events), len(small.Events))
	if perEvent > 160 {
		t.Fatalf("BuildProfile allocates %.1f B/event, want <= 160", perEvent)
	}
}

// BenchmarkDecode_Ocean8Text and ..._Binary measure decoding a recording
// of ocean at eight threads, the daemon's largest cold-upload class.
func BenchmarkDecode_Ocean8Text(b *testing.B) {
	benchDecode(b, trace.AppendText(nil, recordWorkload(b, "ocean", workloads.Params{Threads: 8})))
}

func BenchmarkDecode_Ocean8Binary(b *testing.B) {
	benchDecode(b, trace.AppendBinary(nil, recordWorkload(b, "ocean", workloads.Params{Threads: 8})))
}

func benchDecode(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
