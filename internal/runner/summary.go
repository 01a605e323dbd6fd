package runner

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// JobTiming is one executed job's wall-clock duration.
type JobTiming struct {
	Name     string
	Duration time.Duration
}

// Summary is the pool's post-run report.
type Summary struct {
	Jobs        int // jobs scheduled: distinct keys, plus reruns of failed ones
	Executed    int // simulations actually run
	CacheHits   int // served from the persistent cache
	Failed      int
	Retries     int
	Invalidated int // corrupt/mismatched cache entries deleted
	Workers     int
	Wall        time.Duration // pool lifetime (New to Close)
	SimTime     time.Duration // aggregate simulation time across workers
	Slowest     []JobTiming   // top executed jobs by duration
}

// maxSlowest bounds how many slow jobs the summary names.
const maxSlowest = 5

// Summary snapshots the pool's metrics instruments. Call it after Close
// for a final wall-clock figure.
func (p *Pool) Summary() Summary {
	p.mu.Lock()
	defer p.mu.Unlock()
	simTime, _ := p.met.runTime.Total()
	s := Summary{
		Jobs:        int(p.met.scheduled.Value()),
		Executed:    int(p.met.executed.Value()),
		CacheHits:   int(p.met.cacheHits.Value()),
		Failed:      int(p.met.failed.Value()),
		Retries:     int(p.met.retries.Value()),
		Invalidated: int(p.met.invalidated.Value()),
		Workers:     p.opts.Workers,
		Wall:        p.wall,
		SimTime:     simTime,
	}
	if s.Wall == 0 {
		s.Wall = time.Since(p.start)
	}
	timings := append([]JobTiming(nil), p.timings...)
	sort.Slice(timings, func(i, j int) bool { return timings[i].Duration > timings[j].Duration })
	if len(timings) > maxSlowest {
		timings = timings[:maxSlowest]
	}
	s.Slowest = timings
	return s
}

// Format renders the summary as the multi-line block mmtbench prints to
// stderr.
func (s Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runner: %d jobs — %d simulated, %d cached, %d failed",
		s.Jobs, s.Executed, s.CacheHits, s.Failed)
	if s.Retries > 0 {
		fmt.Fprintf(&b, " (%d retries)", s.Retries)
	}
	if s.Invalidated > 0 {
		fmt.Fprintf(&b, " (%d cache entries invalidated)", s.Invalidated)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "runner: wall %s, simulation time %s across %d workers",
		s.Wall.Round(time.Millisecond), s.SimTime.Round(time.Millisecond), s.Workers)
	if s.Wall > 0 && s.SimTime > 0 {
		fmt.Fprintf(&b, " (%.1fx)", float64(s.SimTime)/float64(s.Wall))
	}
	b.WriteByte('\n')
	if len(s.Slowest) > 0 {
		b.WriteString("runner: slowest jobs:")
		for _, jt := range s.Slowest {
			fmt.Fprintf(&b, " %s %s;", jt.Name, jt.Duration.Round(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
