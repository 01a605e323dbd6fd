package doctor

import (
	"context"
	"fmt"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/serve"
)

// Thresholds are the -watch health gates. Zero values disable a check.
type Thresholds struct {
	// MaxJobP99 bounds any node's job latency p99.
	MaxJobP99 time.Duration
	// MaxQueue bounds any node's admitted-and-waiting queue depth.
	MaxQueue int
	// MaxFailedRate bounds failed/(completed+failed) fleet-wide, 0..1.
	MaxFailedRate float64
}

// Enabled reports whether any check is configured.
func (th Thresholds) Enabled() bool {
	return th.MaxJobP99 > 0 || th.MaxQueue > 0 || th.MaxFailedRate > 0
}

// Violation is one threshold breach.
type Violation struct {
	Node  string `json:"node"` // "" for fleet-wide checks
	Check string `json:"check"`
	Got   string `json:"got"`
	Limit string `json:"limit"`
}

func (v Violation) String() string {
	where := v.Node
	if where == "" {
		where = "fleet"
	}
	return fmt.Sprintf("%s: %s = %s exceeds %s", where, v.Check, v.Got, v.Limit)
}

// CheckStats evaluates the thresholds against one node's serving stats.
func CheckStats(node string, st serve.Stats, th Thresholds) []Violation {
	var out []Violation
	if th.MaxJobP99 > 0 && st.JobP99MS > float64(th.MaxJobP99.Milliseconds()) {
		out = append(out, Violation{Node: node, Check: "job p99",
			Got: fmt.Sprintf("%.1fms", st.JobP99MS), Limit: th.MaxJobP99.String()})
	}
	if th.MaxQueue > 0 && st.QueueDepth > th.MaxQueue {
		out = append(out, Violation{Node: node, Check: "queue depth",
			Got: fmt.Sprint(st.QueueDepth), Limit: fmt.Sprint(th.MaxQueue)})
	}
	if th.MaxFailedRate > 0 {
		if done := st.Completed + st.Failed; done > 0 {
			if rate := float64(st.Failed) / float64(done); rate > th.MaxFailedRate {
				out = append(out, Violation{Node: node, Check: "failure rate",
					Got: fmt.Sprintf("%.3f", rate), Limit: fmt.Sprintf("%.3f", th.MaxFailedRate)})
			}
		}
	}
	return out
}

// Probe fetches the entry point's health once and evaluates the
// thresholds: per node when the server is a router, else on the single
// node's own stats.
func Probe(ctx context.Context, opts Options, th Thresholds) ([]Violation, error) {
	opts.defaults()
	if cs, err := cluster.FetchClusterStats(ctx, nil, opts.Server); err == nil {
		var out []Violation
		out = append(out, CheckStats("", cs.Fleet, th)...)
		for _, n := range cs.Nodes {
			out = append(out, CheckStats(n.Node.Name, n.Stats, th)...)
			if n.State == "down" {
				out = append(out, Violation{Node: n.Node.Name, Check: "state", Got: n.State, Limit: "healthy"})
			}
		}
		return out, nil
	}
	var st serve.Stats
	if err := fetchJSON(ctx, opts.Server+"/v1/stats", &st); err != nil {
		return nil, fmt.Errorf("doctor: %s serves neither /v1/cluster nor /v1/stats: %w", opts.Server, err)
	}
	return CheckStats(opts.Server, st, th), nil
}
