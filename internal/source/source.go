// Package source captures and displays the source location of thread-library
// calls.
//
// The paper's Recorder saves the SPARC return-address register (%i7) at each
// probe and later translates addresses to file/line with a debugger
// (section 3.1). Go gives us the same information directly through
// runtime.Caller, so Loc is recorded eagerly instead of post-processed.
// The Visualizer's "start an editor with the line highlighted" feature is
// reproduced by Excerpt, which renders the surrounding source lines with the
// target line marked.
package source

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Loc identifies a source code position.
type Loc struct {
	File string
	Line int
	Func string
}

// Capture records the caller's position. skip counts stack frames above
// Capture itself: 0 is the caller of Capture, 1 its caller, and so on.
func Capture(skip int) Loc {
	pc, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return Loc{}
	}
	loc := Loc{File: file, Line: line}
	if f := runtime.FuncForPC(pc); f != nil {
		loc.Func = f.Name()
	}
	return loc
}

// IsZero reports whether the location is unset.
func (l Loc) IsZero() bool { return l.File == "" && l.Line == 0 }

// String formats the location as "file:line".
func (l Loc) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends the String form of the location to b.
func (l Loc) AppendTo(b []byte) []byte {
	if l.IsZero() {
		return append(b, "<unknown>"...)
	}
	b = append(b, Base(l.File)...)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(l.Line), 10)
}

// Base returns the last two path components of file, enough to disambiguate
// without dumping absolute build paths into logs.
func Base(file string) string {
	i := strings.LastIndexByte(file, '/')
	if i < 0 {
		return file
	}
	j := strings.LastIndexByte(file[:i], '/')
	if j < 0 {
		return file
	}
	return file[j+1:]
}

// Excerpt reads the file at l and returns context lines around l.Line with
// the target line highlighted by a "=>" marker, emulating the paper's
// editor-highlight facility. It returns an error if the file cannot be read
// or the line is out of range.
func Excerpt(l Loc, context int) (string, error) {
	if l.IsZero() {
		return "", fmt.Errorf("source: no location recorded")
	}
	data, err := os.ReadFile(l.File)
	if err != nil {
		return "", fmt.Errorf("source: %w", err)
	}
	lines := strings.Split(string(data), "\n")
	if l.Line < 1 || l.Line > len(lines) {
		return "", fmt.Errorf("source: line %d out of range in %s (%d lines)", l.Line, l.File, len(lines))
	}
	lo := l.Line - context
	if lo < 1 {
		lo = 1
	}
	hi := l.Line + context
	if hi > len(lines) {
		hi = len(lines)
	}
	var b strings.Builder
	for n := lo; n <= hi; n++ {
		marker := "  "
		if n == l.Line {
			marker = "=>"
		}
		fmt.Fprintf(&b, "%s %4d | %s\n", marker, n, lines[n-1])
	}
	return b.String(), nil
}
