package doctor

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// Write lays the bundle out on disk under dir:
//
//	MANIFEST.json            sweep metadata: nodes reached, errors, version
//	cluster.json             the router's /v1/cluster snapshot (when routed)
//	triage.txt, triage.json  the distilled report
//	nodes/<service>/
//	    flight.json          the node's flight dump (mmtdoctor -from-dump renders it)
//	    metrics.json         the node's in-process metrics time series
//	    profiles.json        continuous-profiler capture index (id -> start time)
//	    cpu-<id>.pprof       every raw CPU capture in the node's ring; merge
//	                         any window with `go tool pprof -top cpu-*.pprof`
//	    config.json          the node's resolved flags
//	traces/<id>.json         each stitched slow trace's spans, with the
//	                         traces its dedup links lead to
//
// Everything is plain JSON (plus raw pprof bytes), so a bundle stays
// diffable and greppable years later.
func (b *Bundle) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(dir, "MANIFEST.json"), b); err != nil {
		return err
	}
	if b.Cluster != nil {
		if err := writeJSONFile(filepath.Join(dir, "cluster.json"), b.Cluster); err != nil {
			return err
		}
	}
	used := make(map[string]bool)
	for _, n := range b.Nodes {
		nd := filepath.Join(dir, "nodes", nodeDirName(n, used))
		if err := os.MkdirAll(nd, 0o755); err != nil {
			return err
		}
		parts := []struct {
			name string
			v    any
		}{
			{"flight.json", n.Flight},
			{"metrics.json", n.Metrics},
			{"profiles.json", n.Profiles},
			{"config.json", n.Config},
		}
		for _, p := range parts {
			if isNil(p.v) {
				continue
			}
			if err := writeJSONFile(filepath.Join(nd, p.name), p.v); err != nil {
				return err
			}
		}
		for _, c := range n.CPU {
			if err := os.WriteFile(filepath.Join(nd, fmt.Sprintf("cpu-%d.pprof", c.ID)), c.Raw, 0o644); err != nil {
				return err
			}
		}
	}
	if len(b.Traces) > 0 {
		td := filepath.Join(dir, "traces")
		if err := os.MkdirAll(td, 0o755); err != nil {
			return err
		}
		for _, tr := range b.Traces {
			if err := writeJSONFile(filepath.Join(td, sanitize(tr.ID)+".json"), tr); err != nil {
				return err
			}
		}
	}
	if b.Triage != nil {
		if err := writeJSONFile(filepath.Join(dir, "triage.json"), b.Triage); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, "triage.txt"))
		if err != nil {
			return err
		}
		b.Triage.WriteReport(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// nodeDirName names one node's directory after its service label,
// uniquified when two nodes report the same one.
func nodeDirName(n *NodeDiag, used map[string]bool) string {
	name := sanitize(n.Service)
	if name == "" {
		name = sanitize(n.Base)
	}
	if name == "" {
		name = "node"
	}
	for i := 2; used[name]; i++ {
		name = fmt.Sprintf("%s-%d", sanitize(n.Service), i)
	}
	used[name] = true
	return name
}

// sanitize flattens a service label or trace id into one path element.
func sanitize(s string) string {
	return strings.NewReplacer(":", "_", "/", "_", "\\", "_", "..", "_").Replace(s)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// isNil reports whether v is nil, including a typed-nil pointer boxed in
// an interface (e.g. (*flight.Dump)(nil)).
func isNil(v any) bool {
	if v == nil {
		return true
	}
	if raw, ok := v.(json.RawMessage); ok {
		return len(raw) == 0
	}
	rv := reflect.ValueOf(v)
	return rv.Kind() == reflect.Pointer && rv.IsNil()
}
