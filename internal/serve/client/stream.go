package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mmt/internal/serve"
)

// stream consumes one SSE connection for a job. It returns the final
// status when an outcome event arrives, or an error if the stream drops
// first (callers retry through Wait).
func (c *Client) stream(ctx context.Context, id string, onEvent func(string, serve.JobStatus)) (serve.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return serve.JobStatus{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		se := &StatusError{Code: resp.StatusCode, Message: errorMessage(b)}
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			se.RetryAfter = time.Duration(s) * time.Second
		}
		return serve.JobStatus{}, se
	}

	br := bufio.NewReader(resp.Body)
	var event string
	var data []byte
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if ctx.Err() != nil {
				return serve.JobStatus{}, ctx.Err()
			}
			return serve.JobStatus{}, fmt.Errorf("client: stream for job %s ended without an outcome: %w", id, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if event == "" {
				continue // comment or heartbeat padding
			}
			var st serve.JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return serve.JobStatus{}, fmt.Errorf("client: decoding %s event: %w", event, err)
			}
			if onEvent != nil {
				onEvent(event, st)
			}
			if st.State.Terminal() {
				// The server ends the stream after the outcome event. Read
				// to that end rather than hang up first: a router in between
				// counts the job finished only when the stream it proxies
				// ends with its client still connected.
				io.Copy(io.Discard, br) //nolint:errcheck // the outcome is in hand
				return st, nil
			}
			event, data = "", nil
		}
	}
}

// asStatusError unwraps err into *StatusError.
func asStatusError(err error, out **StatusError) bool {
	return errors.As(err, out)
}
