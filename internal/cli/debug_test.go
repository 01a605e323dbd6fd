package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mmt/internal/obs/flight"
	"mmt/internal/obs/span"
)

// getFlight GETs one daemon's live flight dump.
func getFlight(addr string) (flight.Dump, error) {
	var d flight.Dump
	resp, err := http.Get("http://" + addr + "/v1/debug/flight")
	if err != nil {
		return d, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&d)
	return d, err
}

// spanRows counts a dump's span rows per trace id.
func spanRows(d flight.Dump) map[string]int {
	n := make(map[string]int)
	for _, e := range d.Entries {
		if e.Kind == flight.KindSpan {
			n[e.Trace]++
		}
	}
	return n
}

// ringSpans counts a daemon's span ring per trace id, as /v1/spans
// summarizes it.
func ringSpans(addr string) (map[string]int, error) {
	tr, err := span.FetchTraces(context.Background(), nil, "http://"+addr, 100000)
	if err != nil {
		return nil, err
	}
	n := make(map[string]int)
	for _, s := range tr.Traces {
		n[s.TraceID] = s.Spans
	}
	return n, nil
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestDebugSurfaceOnEveryDaemon boots mmtcached, mmtserved and mmtrouter
// through the daemon scaffold and scrapes each one's /v1/debug/flight
// while load flows (run under -race, this catches scrape-vs-serve races).
// Every daemon serves /v1/debug/ in front of its server; a live dump
// lists every span in that process's span ring, attrs included, while
// the flight ring itself holds only marks, log lines and panics.
func TestDebugSurfaceOnEveryDaemon(t *testing.T) {
	var progress syncBuffer
	cachedAddr, cachedDone := startDaemon(t, "mmtcached", runCached,
		[]string{"-addr", "127.0.0.1:0", "-dir", t.TempDir()}, &progress)
	servedAddr, servedDone := startDaemon(t, "mmtserved", runServe,
		[]string{"-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", t.TempDir(),
			"-remote-cache", "http://" + cachedAddr}, &progress)
	routerAddr, routerDone := startDaemon(t, "mmtrouter", runRouter,
		[]string{"-addr", "127.0.0.1:0", "-probe-every", "100ms",
			"-backends", "http://" + servedAddr}, &progress)
	daemons := map[string]string{"mmtcached": cachedAddr, "mmtserved": servedAddr, "mmtrouter": routerAddr}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for name, addr := range daemons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := getFlight(addr); err != nil {
					t.Errorf("%s: GET /v1/debug/flight: %v", name, err)
					return
				}
			}
		}()
	}
	var loadOut bytes.Buffer
	err := runLoad([]string{"-server", "http://" + routerAddr, "-n", "6", "-c", "3",
		"-dup", "0.3", "-seed", "5"}, &loadOut, io.Discard)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatalf("mmtload: %v\n%s", err, loadOut.String())
	}

	for name, addr := range daemons {
		// A span may end just after the client saw its response, so wait
		// for the rings to settle before comparing them.
		var d flight.Dump
		var rows, ring map[string]int
		for deadline := time.Now().Add(10 * time.Second); ; {
			if d, err = getFlight(addr); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ring, err = ringSpans(addr); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rows = spanRows(d); sameCounts(rows, ring) || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if !strings.HasPrefix(d.Service, name+"@") {
			t.Errorf("%s: dump service = %q", name, d.Service)
		}
		if len(ring) == 0 || !sameCounts(rows, ring) {
			t.Errorf("%s: dump span rows per trace %v, span ring %v", name, rows, ring)
		}
		for _, e := range d.Entries {
			if e.Seq != 0 && e.Kind != flight.KindMark && e.Kind != flight.KindLog && e.Kind != flight.KindPanic {
				t.Errorf("%s: flight ring holds a %s entry: %+v", name, e.Kind, e)
			}
		}
		root := map[string]string{"mmtcached": "cached.get", "mmtserved": "serve.submit", "mmtrouter": "router.submit"}[name]
		attr := map[string]string{"mmtcached": "result", "mmtserved": "job", "mmtrouter": "job"}[name]
		var found bool
		for _, e := range d.Entries {
			if e.Kind == flight.KindSpan && e.Name == root && e.Attrs[attr] != "" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s row carrying %q in the live dump", name, root, attr)
		}

		// The scaffold answers the whole /v1/debug/ prefix on every daemon.
		resp, err := http.Get("http://" + addr + "/v1/debug/nope")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "unknown debug endpoint") {
			t.Errorf("%s: /v1/debug/nope = %d %s", name, resp.StatusCode, body)
		}
	}

	// A connection dialed but never used must not hold a daemon's exit:
	// net/http's Shutdown would wait 5 s for it.
	for name, addr := range daemons {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dialing an idle connection: %v", name, err)
		}
		defer c.Close()
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := time.After(time.Second)
	for name, done := range map[string]chan error{"mmtcached": cachedDone, "mmtserved": servedDone, "mmtrouter": routerDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s exit: %v", name, err)
			}
		case <-exit:
			t.Fatalf("%s did not exit within 1 s of SIGTERM", name)
		}
	}
}
