package trace

import (
	"reflect"
	"strings"
	"testing"
)

// Fuzz targets for the two decoders that consume untrusted bytes: the text
// log reader and the timeline JSON envelope. The contract under fuzzing is
// simple — return an error on bad input, never panic — plus a round-trip
// obligation: anything the decoder accepts must re-encode and re-decode to
// the same log.

func fuzzSeedLogs() []*Log {
	truncated := repairFixture()
	truncated.Events = truncated.Events[:4]
	return []*Log{
		exampleLog(),
		richLog(),
		repairFixture(),
		truncated,
		{Header: Header{Program: "empty", CPUs: 1, LWPs: 1}},
		{
			Header:  Header{Program: "weird name\twith\nspaces", CPUs: 1, LWPs: 1, End: 10},
			Threads: []ThreadInfo{{ID: 1, Name: "-", Func: `\`, BoundCPU: -1}},
			Events:  []Event{{Seq: 0, Time: 5, Thread: 1, Class: Before, Call: CallThrExit}},
		},
	}
}

func FuzzReadText(f *testing.F) {
	for _, l := range fuzzSeedLogs() {
		f.Add(AppendText(nil, l))
	}
	// Hand-damaged lines steer the fuzzer at the per-record parsers.
	f.Add([]byte("# vppb-log v1\nevent 0 0 T1 before thr_exit\n"))
	f.Add([]byte("# vppb-log v1\nthread 1 name=\\s prio=-9999999999999999999\n"))
	f.Add([]byte("# vppb-log v1\nobject 9 kind=mutex name=\\u0020\n"))
	f.Add([]byte("# vppb-log v1\ncpus 99999999999999999999\n"))
	// Inputs where a byte-level reader could part ways with the line and
	// strings.Fields one: Unicode and invalid-UTF-8 spacing, CRLF, signs
	// and number spellings strconv rejects, and a final unterminated line.
	f.Add([]byte("\r\n \u00a0# vppb-log v1\u2028\r\nprogram\u0085x y\nthread +7 name=a\u00a0b prio=-0\n"))
	f.Add([]byte("# vppb-log v1\nthread 2147483648\nthread -2147483648 boundcpu=0x1\n"))
	f.Add([]byte("# vppb-log v1\nevent 1_0 0 T1 before io\nevent 0 0 T1 before io loc=a:b:1\n"))
	f.Add([]byte("# vppb-log v1\nevent 0 0 T1 after io loc=\\s\\-:+3 ok=1 timeout=-5\xff\x80 prio=3"))
	f.Add([]byte("# vppb-log v1\n\xc2\nevent\xe2\x80\xa8 0 0 T 1 before io\n"))
	f.Add([]byte("\xef\xbb\xbf# vppb-log v1\n"))
	f.Add([]byte("# vppb-log v1\nevent 0 0 T1 before none\nevent 0 0 T1 before\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := decodeText(data)
		want, wantErr := readTextOracle(data)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("decoder error %v, oracle error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(l, want) {
			t.Fatalf("decoded log differs from the oracle:\n%+v\n%+v", l, want)
		}
		// Accepted input must survive a re-encode round trip.
		back, err := decodeText(AppendText(nil, l))
		if err != nil {
			t.Fatalf("re-decode of accepted log failed: %v", err)
		}
		if len(back.Events) != len(l.Events) || len(back.Threads) != len(l.Threads) {
			t.Fatalf("round trip changed shape: %d/%d events, %d/%d threads",
				len(l.Events), len(back.Events), len(l.Threads), len(back.Threads))
		}
	})
}

func FuzzDecodeBinary(f *testing.F) {
	for _, l := range fuzzSeedLogs() {
		data := AppendBinary(nil, l)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add(hugeEventCount(64))
	f.Add([]byte("VPPBLOG1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeBinary(data)
		if err != nil {
			return
		}
		// Accepted input must re-encode to a log that decodes identically.
		back, err := DecodeBinary(AppendBinary(nil, l))
		if err != nil {
			t.Fatalf("re-decode of accepted log failed: %v", err)
		}
		if !reflect.DeepEqual(back, l) {
			t.Fatalf("round trip changed the log:\n%+v\n%+v", l, back)
		}
	})
}

func FuzzUnmarshalTimeline(f *testing.F) {
	tb := NewTimelineBuilder()
	tb.StartThread(ThreadInfo{ID: 1, Name: "main", BoundCPU: -1}, 0)
	tb.AddSpan(1, Span{Start: 0, End: 100, State: StateRunning, CPU: 0, LWP: 0})
	tb.EndThread(1, 100)
	data, err := MarshalTimeline(tb.Build("fuzz", 1, 1, 100))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":"vppb-timeline","version":1}`))
	f.Add([]byte(strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)))
	f.Add([]byte(strings.Replace(string(data), `"end": 100`, `"end": -100`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := UnmarshalTimeline(data)
		if err != nil {
			return
		}
		// UnmarshalTimeline validates; an accepted timeline must
		// re-marshal and re-load.
		out, err := MarshalTimeline(tl)
		if err != nil {
			t.Fatalf("re-marshal of accepted timeline failed: %v", err)
		}
		if _, err := UnmarshalTimeline(out); err != nil {
			t.Fatalf("re-decode of accepted timeline failed: %v", err)
		}
	})
}
