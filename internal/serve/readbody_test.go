package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestReadBodySemantics: every way a body can relate to its announced
// length reads exactly what io.ReadAll would, with the same 413 mapping.
func TestReadBodySemantics(t *testing.T) {
	body := []byte(strings.Repeat("0123456789", 100))
	cases := []struct {
		name   string
		length int64
		limit  int64
		want   []byte
		status int
	}{
		{"announced", int64(len(body)), 1 << 20, body, 0},
		{"unknown length", -1, 1 << 20, body, 0},
		{"understated", 10, 1 << 20, body, 0},
		{"overstated", 5000, 1 << 20, body, 0},
		{"announced over limit", int64(len(body)), 100, nil, http.StatusRequestEntityTooLarge},
		{"understated over limit", 10, 100, nil, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", io.NopCloser(bytes.NewReader(body)))
		r.ContentLength = tc.length
		raw, herr := readBody(httptest.NewRecorder(), r, tc.limit)
		if tc.status != 0 {
			if herr == nil || herr.code != tc.status {
				t.Errorf("%s: got %v, want status %d", tc.name, herr, tc.status)
			}
			continue
		}
		if herr != nil || !bytes.Equal(raw, tc.want) {
			t.Errorf("%s: got %d bytes, %v; want %d bytes", tc.name, len(raw), herr, len(tc.want))
		}
	}
}

// TestReadBodySizedAllocation: an upload with a Content-Length costs one
// allocation of the body's size plus the bounded first chunk, not the
// repeated doubling and copying of a buffer grown by io.ReadAll.
func TestReadBodySizedAllocation(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 4<<20)
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	got, raw, herr := allocsReadBody(r, DefaultMaxBodyBytes)
	if herr != nil || len(raw) != len(body) {
		t.Fatalf("readBody: %d bytes, %v", len(raw), herr)
	}
	if limit := uint64(len(body)) + readChunk + 64<<10; got > limit {
		t.Fatalf("reading a %d-byte body allocated %d bytes, want <= %d", len(body), got, limit)
	}
}

// TestReadBodyOverstatedAllocation: a request that announces the upload
// limit but sends a few bytes allocates in proportion to what arrived,
// bounded by the first chunk, never the announced size.
func TestReadBodyOverstatedAllocation(t *testing.T) {
	sent := []byte(strings.Repeat("x", 100))
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", io.NopCloser(bytes.NewReader(sent)))
	r.ContentLength = DefaultMaxBodyBytes
	got, raw, herr := allocsReadBody(r, DefaultMaxBodyBytes)
	if herr != nil || !bytes.Equal(raw, sent) {
		t.Fatalf("readBody: %d bytes, %v", len(raw), herr)
	}
	if limit := uint64(readChunk) + 64<<10; got > limit {
		t.Fatalf("a body announcing %d bytes and sending %d allocated %d bytes, want <= %d",
			r.ContentLength, len(sent), got, limit)
	}
}

// allocsReadBody runs readBody and reports the bytes it allocated.
func allocsReadBody(r *http.Request, limit int64) (uint64, []byte, *httpError) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	raw, herr := readBody(httptest.NewRecorder(), r, limit)
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, raw, herr
}
