package profiled

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
	"time"
)

// hotSpin is the function the CPU-profile test expects to find by name.
//
//go:noinline
func hotSpin(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		for i := 0; i < 1e5; i++ {
			n += i ^ (n << 1)
		}
	}
	return n
}

func TestCPUCaptureFindsHotFunction(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU window in -short mode")
	}
	p := New("test", Options{Every: time.Hour, CPUDuration: 300 * time.Millisecond})
	defer p.Close()
	// Burn CPU while the profiler's first window is open.
	hotSpin(time.Now().Add(350 * time.Millisecond))
	waitFor(t, func() bool { return len(p.Captures("cpu")) >= 1 })

	// A Go CPU profile carries its function names in the gzipped
	// protobuf's string table, so `go tool pprof` needs no binary to
	// symbolize it; the burning function must be among them.
	c := p.Captures("cpu")[0]
	zr, err := gzip.NewReader(bytes.NewReader(c.bytes))
	if err != nil {
		t.Fatalf("capture %d is not gzipped pprof: %v", c.ID, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("hotSpin")) {
		t.Errorf("hotSpin not in capture %d's string table (%d bytes)", c.ID, len(raw))
	}
}

func TestRingBounded(t *testing.T) {
	p := New("test", Options{Every: time.Hour, Capacity: 2})
	defer p.Close()
	for i := 0; i < 5; i++ {
		p.snapshot("heap")
	}
	caps := p.Captures("heap")
	if len(caps) != 2 {
		t.Fatalf("heap captures = %d, want 2 (bounded)", len(caps))
	}
	if caps[0].ID >= caps[1].ID {
		t.Error("captures not oldest-first")
	}
}

func TestServeHTTP(t *testing.T) {
	p := New("svc", Options{Every: time.Hour})
	defer p.Close()
	waitFor(t, func() bool { return len(p.Captures("heap")) >= 1 })

	rr := httptest.NewRecorder()
	p.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/profiles", nil))
	var idx IndexResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Service != "svc" || len(idx.Captures) < 2 {
		t.Fatalf("index = %+v", idx)
	}

	// Raw bytes round-trip through the endpoint unchanged.
	var heapID int
	for _, c := range idx.Captures {
		if c.Kind == "heap" {
			heapID = c.ID
		}
	}
	rr = httptest.NewRecorder()
	p.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/profiles?id="+itoa(heapID), nil))
	if rr.Code != 200 {
		t.Fatalf("raw fetch status %d", rr.Code)
	}
	c, _ := p.Get(heapID)
	if len(c.bytes) == 0 || !bytes.Equal(rr.Body.Bytes(), c.bytes) {
		t.Errorf("served %d bytes for capture %d, ring holds %d (or they differ)",
			rr.Body.Len(), heapID, len(c.bytes))
	}

	rr = httptest.NewRecorder()
	p.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/profiles?id=99999", nil))
	if rr.Code != 404 {
		t.Errorf("missing capture status = %d, want 404", rr.Code)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in 5s")
}
