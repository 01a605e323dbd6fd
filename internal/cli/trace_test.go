package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mmt/internal/obs/span"
)

// TestTraceFollowsDedupLink: a dedup joiner's trace holds only its
// admission and a link to the creator's trace, where the simulation ran.
// Stitching the joiner must fetch the linked trace too, so the tree holds
// both.
func TestTraceFollowsDedupLink(t *testing.T) {
	const svc = "mmtserved@127.0.0.1:4"
	base := time.Now().Add(-time.Second).UnixNano()
	spans := map[string][]span.Record{
		"t-joiner": {
			{TraceID: "t-joiner", SpanID: "a1", Name: "serve.submit", Service: svc,
				StartUNS: base + 10e6, DurNS: 2e6},
			{TraceID: "t-joiner", SpanID: "a2", ParentID: "a1", Name: "serve.join", Service: svc,
				StartUNS: base + 11e6, DurNS: 1e6, LinkTrace: "t-creator", LinkSpan: "b1"},
		},
		"t-creator": {
			{TraceID: "t-creator", SpanID: "b1", Name: "serve.flight", Service: svc,
				StartUNS: base, DurNS: 90e6},
			{TraceID: "t-creator", SpanID: "b2", ParentID: "b1", Name: "serve.exec", Service: svc,
				StartUNS: base + 5e6, DurNS: 80e6},
		},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("trace")
		json.NewEncoder(w).Encode(span.SpansResponse{Service: svc, Spans: spans[id]}) //nolint:errcheck
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tree, err := fetchStitched(ctx, []string{srv.URL}, "t-joiner", func(ep string, err error) {
		t.Errorf("%s: %v", ep, err)
	})
	if err != nil {
		t.Fatal(err)
	}
	var creator int
	tree.Walk(func(n *span.Node, _ int) {
		if n.TraceID == "t-creator" {
			creator++
		}
	})
	if creator != 2 || tree.Count != 4 {
		t.Errorf("stitched t-joiner holds %d creator spans of %d, want 2 of 4", creator, tree.Count)
	}
}

// TestTraceRendersLegacyDump: a schema-1 dump from a build whose ring
// still held obs events and samples renders through -from-dump, with
// those retired entries shown as kind-?.
func TestTraceRendersLegacyDump(t *testing.T) {
	var out bytes.Buffer
	dump := filepath.Join("..", "obs", "flight", "testdata", "legacy_v1.json")
	if err := runTrace([]string{"-from-dump", dump}, &out, io.Discard); err != nil {
		t.Fatalf("mmttrace -from-dump: %v", err)
	}
	if n := strings.Count(out.String(), "kind-?"); n != 2 {
		t.Errorf("%d kind-? rows, want 2:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "runner.exec") {
		t.Errorf("legacy dump lost its span entry:\n%s", out.String())
	}
}
