// Package client is the Go client for the mmtserved job server. It wraps
// the HTTP API with exponential-backoff retries (full jitter, Retry-After
// aware), context cancellation, and SSE stream consumption. Submissions
// are content-addressed on the server, so retrying a POST is idempotent:
// a duplicate lands as a dedup join or a cache hit, never a second
// simulation.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"mmt/internal/obs/span"
	"mmt/internal/serve"
	"mmt/internal/sim"
)

// Client talks to one mmtserved instance. The zero value is not usable;
// construct with New.
type Client struct {
	base string
	http *http.Client

	// Tracer, when non-nil, opens a client-side root span per Submit/Run
	// (named "client.submit", in the submission's trace when it carries a
	// trace id) so the waterfall starts at the caller. Independently of
	// the tracer, any span context already on the request context is
	// always propagated as a traceparent header.
	Tracer *span.Tracer

	// Retries is how many extra attempts a retryable request gets
	// (default 4). 429, 5xx and transport errors are retryable; other 4xx
	// are not.
	Retries int
	// BaseDelay seeds the exponential backoff (default 100ms); MaxDelay
	// caps it (default 5s). A 429's Retry-After overrides the computed
	// delay when larger.
	BaseDelay time.Duration
	MaxDelay  time.Duration

	// sleep and jitter are test seams: sleep waits (honoring ctx) and
	// jitter picks uniformly in [0, d).
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func(d time.Duration) time.Duration
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8377").
// httpc may be nil for http.DefaultClient.
func New(base string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{
		base:      base,
		http:      httpc,
		Retries:   4,
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  5 * time.Second,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
		jitter: func(d time.Duration) time.Duration {
			return time.Duration(rand.Int63n(int64(d) + 1))
		},
	}
}

// StatusError is a non-2xx response that was not retried to success.
type StatusError struct {
	Code       int
	Message    string
	RetryAfter time.Duration // from a 429's Retry-After, if any
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

// retryable reports whether an attempt's failure may resolve on retry.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// backoff computes the wait before retry attempt i (0-based): full-jitter
// exponential backoff, floored by any server-provided Retry-After.
func (c *Client) backoff(i int, retryAfter time.Duration) time.Duration {
	d := c.BaseDelay << uint(i)
	if d > c.MaxDelay || d <= 0 {
		d = c.MaxDelay
	}
	d = c.jitter(d)
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// do runs one request with retries. path is relative ("/v1/jobs"); body
// non-nil for POST. The decoded JSON lands in out when non-nil.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	var last error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if sc, ok := span.FromContext(ctx); ok {
			span.Inject(req.Header, sc)
		}
		var retryAfter time.Duration
		resp, err := c.http.Do(req)
		if err != nil {
			last = err
		} else {
			b, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if rerr != nil {
				last = rerr
			} else if resp.StatusCode >= 200 && resp.StatusCode < 300 {
				if out == nil {
					return nil
				}
				return json.Unmarshal(b, out)
			} else {
				se := &StatusError{Code: resp.StatusCode, Message: errorMessage(b)}
				if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
					se.RetryAfter = time.Duration(s) * time.Second
				}
				if !retryable(resp.StatusCode) {
					return se
				}
				last = se
				retryAfter = se.RetryAfter
			}
		}
		if attempt >= c.Retries {
			return fmt.Errorf("client: %s %s: giving up after %d attempts: %w",
				method, path, attempt+1, last)
		}
		// Check ctx before computing and serving the backoff: a cancelled
		// caller must not sit out a multi-second delay (or a Retry-After)
		// just to learn it was cancelled.
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
			return err
		}
	}
}

// errorMessage extracts the server's error envelope, falling back to the
// raw body.
func errorMessage(b []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// startSpan opens a client-side root span for a submission when the
// client has a tracer and ctx does not already carry a span (an embedder
// with its own tracing wins). The returned ctx propagates the context;
// end is nil-safe.
func (c *Client) startSpan(ctx context.Context, name, trace string) (context.Context, *span.Span) {
	if c.Tracer == nil {
		return ctx, nil
	}
	if _, ok := span.FromContext(ctx); ok {
		return ctx, nil
	}
	sp := c.Tracer.Start(span.SpanContext{TraceID: trace}, name)
	return span.ContextWith(ctx, sp.Context()), sp
}

// Submit posts a job. Safe to retry: identical submissions share one
// simulation server-side.
func (c *Client) Submit(ctx context.Context, req serve.SubmitRequest) (serve.JobStatus, error) {
	ctx, sp := c.startSpan(ctx, "client.submit", req.TraceID)
	defer sp.End()
	var st serve.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	if sp != nil && err == nil {
		sp.SetAttr("job", st.ID)
	}
	return st, err
}

// Stats fetches /v1/stats.
func (c *Client) Stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Wait follows the job's SSE stream until it turns terminal and returns
// the final status. onEvent, when non-nil, sees every event (state,
// progress, outcome) as it arrives. A dropped stream reconnects with the
// same backoff schedule as requests, honoring the server's Retry-After;
// ctx cancels the wait immediately, even mid-backoff. When reconnects run
// out, the returned error wraps the last *StatusError, so errors.As
// recovers the server's final Retry-After.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(event string, st serve.JobStatus)) (serve.JobStatus, error) {
	var last error
	var retryAfter time.Duration
	for attempt := 0; ; attempt++ {
		st, err := c.stream(ctx, id, onEvent)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return serve.JobStatus{}, ctx.Err()
		}
		var se *StatusError
		if asStatusError(err, &se) {
			if !retryable(se.Code) {
				return serve.JobStatus{}, err
			}
			retryAfter = se.RetryAfter
		} else {
			retryAfter = 0
		}
		last = err
		if attempt >= c.Retries {
			return serve.JobStatus{}, fmt.Errorf("client: streaming job %s: giving up after %d attempts: %w",
				id, attempt+1, last)
		}
		// Same contract as do(): never enter a backoff sleep once the
		// caller has cancelled.
		if err := ctx.Err(); err != nil {
			return serve.JobStatus{}, err
		}
		if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
			return serve.JobStatus{}, err
		}
	}
}

// Run submits the task and waits for its outcome — the one-call client
// path mmtload and scripts use.
func (c *Client) Run(ctx context.Context, req serve.SubmitRequest) (*sim.Outcome, serve.JobStatus, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, serve.JobStatus{}, err
	}
	if !st.State.Terminal() {
		if st, err = c.Wait(ctx, st.ID, nil); err != nil {
			return nil, serve.JobStatus{}, err
		}
	}
	if st.Error != "" {
		return nil, st, fmt.Errorf("client: job %s %s: %s", st.ID, st.State, st.Error)
	}
	out, err := st.DecodeOutcome()
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}
