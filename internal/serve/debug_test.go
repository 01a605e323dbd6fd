package serve

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mmt/internal/obs"
	"mmt/internal/obs/span"
)

// TestDebugEndpointsUnderConcurrentLoad hammers /metrics and /v1/spans
// while jobs flow through the server. Run under -race this is the
// regression test for scrape-vs-serve data races. The daemons' shared
// /v1/debug/ surface has its own test in internal/cli.
func TestDebugEndpointsUnderConcurrentLoad(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := span.NewTracer("serve-test", 512)
	_, hs := startServer(t, Options{
		Metrics: reg,
		Tracer:  tracer,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	scrape := func(path string, check func(t *testing.T, body []byte)) {
		defer wg.Done()
		for ctx.Err() == nil {
			resp, err := http.Get(hs.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: %d: %s", path, resp.StatusCode, body)
				return
			}
			if check != nil {
				check(t, body)
			}
		}
	}
	wg.Add(2)
	go scrape("/metrics", func(t *testing.T, body []byte) {
		if !strings.Contains(string(body), "mmt_serve_jobs_submitted_total") {
			t.Error("/metrics missing serve counters")
		}
	})
	go scrape("/v1/spans", nil)

	// Drive load while the scrapers run: distinct tasks plus duplicates.
	var ids []string
	for i := 0; i < 6; i++ {
		st, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000 + uint64(i%3)*1000)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitDone(t, hs.URL, id)
	}
	// Let the scrapers observe the fully-settled state at least once more.
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
}
