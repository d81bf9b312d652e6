package source

import (
	"strings"
	"testing"
)

func TestCapture(t *testing.T) {
	loc := Capture(0)
	if !strings.HasSuffix(loc.File, "source_test.go") {
		t.Fatalf("File = %q, want suffix source_test.go", loc.File)
	}
	if loc.Line == 0 {
		t.Fatal("Line not captured")
	}
	if !strings.Contains(loc.Func, "TestCapture") {
		t.Fatalf("Func = %q, want TestCapture", loc.Func)
	}
}

func helperCapture() Loc { return Capture(1) }

func TestCaptureSkip(t *testing.T) {
	loc := helperCapture()
	if !strings.Contains(loc.Func, "TestCaptureSkip") {
		t.Fatalf("skip=1 should report the caller, got %q", loc.Func)
	}
}

func TestString(t *testing.T) {
	l := Loc{File: "/a/b/c/d.go", Line: 12}
	if got := l.String(); got != "c/d.go:12" {
		t.Fatalf("String = %q", got)
	}
	var zero Loc
	if zero.String() != "<unknown>" {
		t.Fatalf("zero String = %q", zero.String())
	}
	if !zero.IsZero() {
		t.Fatal("zero Loc should report IsZero")
	}
}

func TestBaseMatchesSplit(t *testing.T) {
	// The split-and-join definition Base had before it stopped allocating.
	split := func(file string) string {
		parts := strings.Split(file, "/")
		if len(parts) <= 2 {
			return file
		}
		return strings.Join(parts[len(parts)-2:], "/")
	}
	for _, f := range []string{"", "d.go", "/", "//", "///", "/d.go", "x/d.go", "a/b/", "a//b", "/a/b/c/d.go", "c/d.go/"} {
		if got, want := Base(f), split(f); got != want {
			t.Errorf("Base(%q) = %q, want %q", f, got, want)
		}
	}
}

func TestAppendToMatchesString(t *testing.T) {
	for _, l := range []Loc{{}, {File: "/a/b/c/d.go", Line: 12}, {File: "d.go", Line: -3}, {Line: 7}} {
		got := string(l.AppendTo([]byte("x ")))
		if want := "x " + l.String(); got != want {
			t.Errorf("AppendTo = %q, want %q", got, want)
		}
	}
	if got := (Loc{File: "/a/b/c/d.go", Line: 12}).String(); got != "c/d.go:12" {
		t.Fatalf("String = %q", got)
	}
}

func TestBaseShortPath(t *testing.T) {
	if got := Base("d.go"); got != "d.go" {
		t.Fatalf("Base short = %q", got)
	}
	if got := Base("x/d.go"); got != "x/d.go" {
		t.Fatalf("Base two-part = %q", got)
	}
}

func TestExcerptHighlightsLine(t *testing.T) {
	loc := Capture(0)
	out, err := Excerpt(loc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=>") {
		t.Fatal("no highlight marker in excerpt")
	}
	if !strings.Contains(out, "Capture(0)") {
		t.Fatalf("excerpt missing target line content:\n%s", out)
	}
	// Marker must sit on the recorded line number.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "=>") && !strings.Contains(line, "Capture(0)") {
			t.Fatalf("highlight on wrong line: %q", line)
		}
	}
}

func TestExcerptErrors(t *testing.T) {
	if _, err := Excerpt(Loc{}, 1); err == nil {
		t.Fatal("zero Loc should error")
	}
	if _, err := Excerpt(Loc{File: "/nonexistent/file.go", Line: 1}, 1); err == nil {
		t.Fatal("missing file should error")
	}
	loc := Capture(0)
	loc.Line = 1 << 20
	if _, err := Excerpt(loc, 1); err == nil {
		t.Fatal("out-of-range line should error")
	}
}
