// Package ingest unifies the predictor's trace frontends: native vppb
// recordings (text or binary) and Go runtime execution traces. Callers
// hand it raw bytes; it detects the format from the content and returns a
// validated trace.Log, so the CLIs and the prediction daemon share one
// entry point and one set of error messages.
package ingest

import (
	"bytes"
	"fmt"
	"os"

	"vppb/internal/gotrace"
	"vppb/internal/trace"
)

// Format names.
const (
	FormatAuto    = "auto"
	FormatVPPB    = "vppb"
	FormatGoTrace = "gotrace"
)

// Formats lists the accepted -format values.
func Formats() []string { return []string{FormatAuto, FormatVPPB, FormatGoTrace} }

// CheckFormat validates a -format flag value.
func CheckFormat(format string) error {
	switch format {
	case FormatAuto, FormatVPPB, FormatGoTrace:
		return nil
	}
	return fmt.Errorf("ingest: unknown format %q (want auto, vppb or gotrace)", format)
}

// Detect sniffs the trace format from raw bytes: FormatVPPB for the text
// ("# vppb-log v1") and binary ("VPPBLOG1") encodings, FormatGoTrace for a
// Go runtime execution trace header, "" when the bytes match neither.
func Detect(data []byte) string {
	if bytes.HasPrefix(data, []byte("VPPB")) {
		return FormatVPPB
	}
	if gotrace.Sniff(data) {
		return FormatGoTrace
	}
	// The text encoding opens with its magic comment, possibly after
	// leading blank lines.
	rest := data
	for len(rest) > 0 {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, []byte("# vppb-log")) {
			return FormatVPPB
		}
		break
	}
	return ""
}

// Decode parses raw trace bytes in the given format (FormatAuto detects it
// first). program names the resulting recording when the format carries no
// name of its own (Go traces); empty keeps the frontend's default.
func Decode(data []byte, format, program string) (*trace.Log, error) {
	if format == FormatAuto || format == "" {
		format = Detect(data)
		if format == "" {
			// Not recognizably any format. Run the native reader anyway:
			// near-miss files get its line-numbered diagnosis instead of a
			// generic rejection. (The daemon checks Detect itself first and
			// rejects unknown uploads before reaching here.)
			format = FormatVPPB
		}
	}
	switch format {
	case FormatVPPB:
		return trace.Decode(data)
	case FormatGoTrace:
		return gotrace.Convert(data, gotrace.Options{Program: program})
	}
	return nil, CheckFormat(format)
}

// File reads and decodes a trace file.
func File(path, format string) (*trace.Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data, format, "")
}
