package dse

import (
	"context"
	"fmt"

	"mmt/internal/runner"
	"mmt/internal/serve"
	"mmt/internal/serve/client"
	"mmt/internal/sim"
)

// Backend executes one candidate evaluation. The engine only ever speaks
// wire-form TaskSpecs, so the same study runs unchanged against the local
// worker pool or a live mmtserved fleet — and, because tasks are content-
// addressed and the simulator is deterministic, produces byte-identical
// artifacts either way.
type Backend interface {
	// Run resolves and executes the spec, honoring ctx cancellation.
	Run(ctx context.Context, spec sim.TaskSpec) (*sim.Outcome, error)
	// Name labels the backend in progress output (never in artifacts).
	Name() string
}

// TracedBackend is implemented by backends that can carry a per-request
// correlation id end-to-end, so each evaluation's log line greps to the
// matching server-side spans and flight-ring entries.
type TracedBackend interface {
	RunTraced(ctx context.Context, spec sim.TaskSpec, trace string) (*sim.Outcome, error)
}

// runOn dispatches one evaluation, threading the trace id through when the
// backend supports it.
func runOn(ctx context.Context, be Backend, spec sim.TaskSpec, trace string) (*sim.Outcome, error) {
	if tb, ok := be.(TracedBackend); ok && trace != "" {
		return tb.RunTraced(ctx, spec, trace)
	}
	return be.Run(ctx, spec)
}

// LocalBackend evaluates on an in-process runner.Pool, inheriting its
// content-addressed dedup, persistent cache and retries.
type LocalBackend struct{ pool *runner.Pool }

// NewLocalBackend starts a pool with the given options.
func NewLocalBackend(ctx context.Context, opts runner.Options) (*LocalBackend, error) {
	pool, err := runner.New(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &LocalBackend{pool: pool}, nil
}

// Run resolves the spec and executes it on the pool.
func (b *LocalBackend) Run(ctx context.Context, spec sim.TaskSpec) (*sim.Outcome, error) {
	task, err := spec.Task()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.pool.Do(task)
}

// RunTraced implements TracedBackend: the id names the trace of the
// task's runner spans (and their flight-ring entries, when one is wired).
func (b *LocalBackend) RunTraced(ctx context.Context, spec sim.TaskSpec, trace string) (*sim.Outcome, error) {
	task, err := spec.Task()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	task.TraceID = trace
	return b.pool.Do(task)
}

// Name implements Backend.
func (b *LocalBackend) Name() string { return "local" }

// Close drains the pool.
func (b *LocalBackend) Close() { b.pool.Close() }

// ServerBackend evaluates against a running mmtserved (or mmtrouter
// fleet): submissions dedup and cache server-side, so concurrent studies
// and repeated rungs share work across clients.
type ServerBackend struct {
	c    *client.Client
	base string
}

// NewServerBackend returns a backend for the server at base
// (e.g. "http://127.0.0.1:8377").
func NewServerBackend(base string) *ServerBackend {
	return &ServerBackend{c: client.New(base, nil), base: base}
}

// Run submits the spec and waits for its outcome.
func (b *ServerBackend) Run(ctx context.Context, spec sim.TaskSpec) (*sim.Outcome, error) {
	out, st, err := b.c.Run(ctx, serve.SubmitRequest{Task: spec})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("dse: server job %s finished %s without an outcome", st.ID, st.State)
	}
	return out, nil
}

// RunTraced implements TracedBackend: the id becomes the submission's
// trace_id, unifying the client-side log line with the server's spans.
func (b *ServerBackend) RunTraced(ctx context.Context, spec sim.TaskSpec, trace string) (*sim.Outcome, error) {
	out, st, err := b.c.Run(ctx, serve.SubmitRequest{Task: spec, TraceID: trace})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("dse: server job %s finished %s without an outcome", st.ID, st.State)
	}
	return out, nil
}

// Name implements Backend.
func (b *ServerBackend) Name() string { return "server " + b.base }
