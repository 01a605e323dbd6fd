package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"mmt/internal/obs/span"
)

// CacheClient implements runner.RemoteCache against a CacheServer. A nil
// *CacheClient is a valid no-op tier; transport errors surface to the
// caller, which treats them as misses.
type CacheClient struct {
	base string
	hc   *http.Client
}

// NewCacheClient points a client at an mmtcached base URL, e.g.
// "http://127.0.0.1:8380". The client performs single attempts — the
// runner already bounds each call with a short timeout, and a flaky
// cache tier must never slow the simulate path down.
func NewCacheClient(baseURL string, hc *http.Client) *CacheClient {
	if hc == nil {
		hc = &http.Client{}
	}
	return &CacheClient{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// Load fetches the entry for key. A 404 is a miss, not an error.
func (c *CacheClient) Load(ctx context.Context, key string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	if sc, ok := span.FromContext(ctx); ok {
		span.Inject(req.Header, sc)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
		if err != nil {
			return nil, false, err
		}
		return raw, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("remote cache load: status %d", resp.StatusCode)
	}
}

// Store uploads the raw entry for key. The server re-validates the blob,
// so a 400 here means the entry was malformed, not that the tier is down.
func (c *CacheClient) Store(ctx context.Context, key string, raw []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+"/v1/cache/"+key, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if sc, ok := span.FromContext(ctx); ok {
		span.Inject(req.Header, sc)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck // drain for reuse
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote cache store: status %d", resp.StatusCode)
	}
	return nil
}

// FetchClusterStats GETs a router's /v1/cluster snapshot. mmtload's
// -cluster mode diffs two of these around a run to report per-node
// throughput and the fleet dedup ratio.
func FetchClusterStats(ctx context.Context, hc *http.Client, baseURL string) (ClusterStats, error) {
	var cs ClusterStats
	if hc == nil {
		hc = &http.Client{}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(baseURL, "/")+"/v1/cluster", nil)
	if err != nil {
		return cs, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return cs, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cs, fmt.Errorf("cluster stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&cs)
	return cs, err
}
