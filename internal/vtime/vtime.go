// Package vtime provides the virtual-time foundation shared by the
// execution substrate (internal/threadlib) and the trace-driven predictor
// (internal/core): a microsecond-resolution virtual clock, durations, a
// deterministic event queue, and a small seeded random source.
//
// VPPB's Recorder stamps every event with wall-clock time at 1 microsecond
// resolution (paper, section 3.1). All times in this repository are virtual
// microseconds so that recorded logs, simulations and validation runs are
// bit-for-bit reproducible across machines.
package vtime

import (
	"math"
	"strconv"
)

// Time is an instant in virtual microseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Never is a sentinel Time larger than any reachable instant.
const Never Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the instant as seconds with microsecond precision,
// matching the log excerpts in the paper (e.g. "0.53").
func (t Time) String() string { return formatSeconds(int64(t)) }

// String formats the duration as seconds with microsecond precision.
func (d Duration) String() string { return formatSeconds(int64(d)) }

func formatSeconds(us int64) string {
	var buf [24]byte
	return string(AppendSeconds(buf[:0], us))
}

// AppendSeconds appends us microseconds formatted as seconds, the form
// Time.String and Duration.String return: the fraction keeps its
// microseconds with trailing zeros trimmed, but never fewer than two
// decimals ("0.53", "1.234567", "-0.25").
func AppendSeconds(b []byte, us int64) []byte {
	u := uint64(us)
	if us < 0 {
		b = append(b, '-')
		u = -u
	}
	b = strconv.AppendUint(b, u/uint64(Second), 10)
	rem := u % uint64(Second)
	var frac [7]byte
	frac[0] = '.'
	for i := 6; i > 0; i-- {
		frac[i] = byte('0' + rem%10)
		rem /= 10
	}
	n := len(frac)
	for n > 3 && frac[n-1] == '0' {
		n--
	}
	return append(b, frac[:n]...)
}

// DurationOf parses floating-point seconds into a Duration, rounding to the
// nearest microsecond.
func DurationOf(seconds float64) Duration {
	return Duration(math.Round(seconds * float64(Second)))
}

// MinTime returns the smaller of two instants.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the larger of two instants.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
