package vtime

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(5 * Second)
	if t1 != Time(5_000_000) {
		t.Fatalf("Add: got %d, want 5000000", t1)
	}
	if d := t1.Sub(t0); d != 5*Second {
		t.Fatalf("Sub: got %v, want 5s", d)
	}
	if s := t1.Seconds(); s != 5.0 {
		t.Fatalf("Seconds: got %v, want 5", s)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		us   int64
		want string
	}{
		{0, "0.00"},
		{100_000, "0.10"},
		{530_000, "0.53"},
		{1_000_000, "1.00"},
		{1_234_567, "1.234567"},
		{-250_000, "-0.25"},
		{800_000, "0.80"},
	}
	for _, c := range cases {
		if got := Time(c.us).String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.us, got, c.want)
		}
	}
}

// fmtSeconds is the fmt-based formatter AppendSeconds replaced.
func fmtSeconds(us int64) string {
	neg := ""
	if us < 0 {
		neg = "-"
		us = -us
	}
	s := fmt.Sprintf("%06d", us%int64(Second))
	for len(s) > 2 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return fmt.Sprintf("%s%d.%s", neg, us/int64(Second), s)
}

func TestAppendSecondsMatchesFmt(t *testing.T) {
	same := func(us int64) bool {
		if us == math.MinInt64 {
			return true // the old formatter printed "--9223372036854.-775808"
		}
		return string(AppendSeconds([]byte("x"), us)) == "x"+fmtSeconds(us) && Time(us).String() == fmtSeconds(us)
	}
	for _, us := range []int64{0, 1, -1, 9, 10, 100, 100_000, 999_999, 1_000_000, -1_000_001, 1_230_000, math.MaxInt64, math.MinInt64 + 1} {
		if !same(us) {
			t.Errorf("AppendSeconds(%d) = %q, want %q", us, AppendSeconds(nil, us), fmtSeconds(us))
		}
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	if got := string(AppendSeconds(nil, math.MinInt64)); got != "-9223372036854.775808" {
		t.Fatalf("AppendSeconds(MinInt64) = %q", got)
	}
}

func TestDurationOf(t *testing.T) {
	if d := DurationOf(0.5); d != 500*Millisecond {
		t.Fatalf("DurationOf(0.5) = %v", d)
	}
	if d := DurationOf(1e-6); d != Microsecond {
		t.Fatalf("DurationOf(1e-6) = %v", d)
	}
	if d := DurationOf(0); d != 0 {
		t.Fatalf("DurationOf(0) = %v", d)
	}
}

func TestMinMaxTime(t *testing.T) {
	if MinTime(3, 7) != 3 || MinTime(7, 3) != 3 {
		t.Fatal("MinTime wrong")
	}
	if MaxTime(3, 7) != 7 || MaxTime(7, 3) != 7 {
		t.Fatal("MaxTime wrong")
	}
}

func TestQueueOrdersByTime(t *testing.T) {
	var q EventQueue[string]
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	want := []string{"a", "b", "c"}
	for i, w := range want {
		at, item := q.Pop()
		if item != w {
			t.Fatalf("pop %d: got %q, want %q", i, item, w)
		}
		if at != Time((i+1)*10) {
			t.Fatalf("pop %d: time %d", i, at)
		}
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty")
	}
}

func TestQueueFIFOAtEqualTimes(t *testing.T) {
	var q EventQueue[int]
	for i := 0; i < 100; i++ {
		q.Push(42, i)
	}
	for i := 0; i < 100; i++ {
		_, item := q.Pop()
		if item != i {
			t.Fatalf("tie-break violated: got %d at pop %d", item, i)
		}
	}
}

func TestQueuePeekTime(t *testing.T) {
	var q EventQueue[int]
	q.Push(99, 1)
	q.Push(5, 2)
	if q.PeekTime() != 5 {
		t.Fatalf("PeekTime = %d, want 5", q.PeekTime())
	}
	q.Pop()
	if q.PeekTime() != 99 {
		t.Fatalf("PeekTime after pop = %d, want 99", q.PeekTime())
	}
}

// Property: popping everything always yields non-decreasing timestamps, and
// the multiset of timestamps is preserved.
func TestQueueSortedProperty(t *testing.T) {
	f := func(times []int16) bool {
		var q EventQueue[int]
		in := make([]int64, len(times))
		for i, v := range times {
			q.Push(Time(v), i)
			in[i] = int64(v)
		}
		out := make([]int64, 0, len(times))
		prev := Time(-1 << 62)
		for q.Len() > 0 {
			at, _ := q.Pop()
			if at < prev {
				return false
			}
			prev = at
			out = append(out, int64(at))
		}
		sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
		if len(in) != len(out) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := true
	a = NewRand(7)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(2)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(3)
	const d = 1000 * Microsecond
	for i := 0; i < 10000; i++ {
		j := r.Jitter(d, 0.1)
		if j < 900 || j > 1100 {
			t.Fatalf("jitter out of bounds: %d", j)
		}
	}
	if r.Jitter(d, 0) != d {
		t.Fatal("zero amp must be identity")
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Fatal("zero duration must stay zero")
	}
}
