// Package cluster turns N independent mmtserved daemons into one
// horizontally scalable simulation fleet. It is MMT's core idea applied
// at datacenter scale: just as the paper's fetch-history buffer notices
// that concurrent threads are about to execute the same instructions and
// pays for them once, the cluster notices that concurrent clients are
// about to run the same simulation and pays for it once — fleet-wide.
//
// Three pieces compose:
//
//   - Ring: a weighted consistent-hash ring over the backend nodes.
//     Jobs are placed by their content-addressed cache key (the same
//     canonical key the memo, the persistent cache and serve's
//     single-flight dedup share), so identical submissions land on the
//     same node and per-node single-flight dedup becomes fleet-wide
//     dedup. Membership changes move a minimal key fraction.
//
//   - Router: the coordinator daemon behind cmd/mmtrouter. It speaks the
//     same /v1 job API as mmtserved — clients cannot tell them apart —
//     and adds node lifecycle: health probes against /v1/healthz,
//     drain-aware routing (a SIGTERM-draining node stops receiving new
//     keys, which re-route to its ring successor while its in-flight
//     jobs finish and stay reachable through the router), and
//     load-aware placement (the router counts each node's unfinished
//     jobs; when every worker of a key's owner is taken, a node with a
//     free worker takes the key instead of letting it queue, and
//     placements are pinned per key so stealing never splits one key
//     across two nodes mid-flight).
//
//   - CacheServer/CacheClient: a content-addressed remote result cache
//     (cmd/mmtcached) the runner's persistent cache tiers into — checked
//     on local miss, written through on store. Any node, and any CI run,
//     gets warm hits; a cold-restarted node serves previously simulated
//     results without re-simulating.
//
// cmd/mmtload's -cluster mode drives a router and reports per-node
// throughput and the fleet dedup ratio.
package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"
)

// errorBody mirrors serve's JSON error envelope, so clients decode router
// and backend errors identically.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...any) {
	body := errorBody{Error: fmt.Sprintf(format, args...)}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(math.Ceil(retryAfter.Seconds()))))
		body.RetryAfterMS = retryAfter.Milliseconds()
	}
	writeJSON(w, status, body)
}
