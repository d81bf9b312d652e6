package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share op; parent links a span to the span that caused it.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Events and Bytes are the work the call did, for per-unit costs.
	Events int64 `json:"events,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
}

// spanLog keeps one client's spans in memory; it is written out once the
// run ends. A nil *spanLog records nothing, so the untraced run pays one
// nil check per would-be span.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0} }

func (l *spanLog) begin(name string, op, parent int) int {
	if l == nil {
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: time.Since(l.t0)})
	return id
}

func (l *spanLog) end(id int, events, bytes int64) {
	if l == nil {
		return
	}
	s := &l.spans[id]
	s.End = time.Since(l.t0)
	s.Events, s.Bytes = events, bytes
}

// selfTimes returns every span's duration minus the part its children
// cover. Children of one span run one after another, so they never
// overlap and their durations add.
func (l *spanLog) selfTimes() []time.Duration {
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// writeSpans stores every client's spans as one JSON document.
func writeSpans(path string, logs []*spanLog) error {
	var all [][]span
	for _, l := range logs {
		all = append(all, l.spans)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
