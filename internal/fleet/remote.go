package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"mnoc/internal/runner/artifact"
	"mnoc/internal/telemetry"
)

// Remote is an artifact.Store speaking HTTP against a backend running
// with -artifact-serve (GET/PUT /artifacts/<key>), so fleet
// replicas share one warm content-addressed cache.
//
// The store is deliberately best-effort: a computation must never fail
// because the shared cache is unreachable. An unreachable or
// non-200 read degrades to a miss (the replica re-solves locally), and
// a failed write is dropped. The one hard line is integrity: a fetched
// blob whose MART envelope fails validation counts as corrupt AND as a
// miss — the same contract the local disk store's quarantine path
// keeps — and is never handed to a decoder.
type Remote struct {
	base   string
	client *http.Client

	hits, misses, puts, corrupt atomic.Uint64

	// Telemetry handles are nil until Instrument; telemetry.Counter is
	// nil-safe, so the hot path never branches on instrumentation.
	hitC, missC, putC, corruptC *telemetry.Counter
}

var _ artifact.Store = (*Remote)(nil)
var _ artifact.Locator = (*Remote)(nil)

// NewRemote returns a store backed by the artifact-serve surface at
// base (e.g. "http://host:8080"). The per-operation timeout bounds a
// stalled cache host's damage to one slow round-trip.
func NewRemote(base string) *Remote {
	return &Remote{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// Instrument mirrors the store's traffic onto reg's fleet.store.*
// counters. Unlike fleet.RegisterMetrics it registers ONLY the store
// subset: a backend using a remote cache should not grow zero-valued
// proxy/sweep metrics.
func (r *Remote) Instrument(reg *telemetry.Registry) {
	r.hitC = reg.Counter(MetricStoreHit)
	r.missC = reg.Counter(MetricStoreMiss)
	r.putC = reg.Counter(MetricStorePut)
	r.corruptC = reg.Counter(MetricStoreCorrupt)
}

// Location implements artifact.Locator for run summaries.
func (r *Remote) Location() string { return "remote " + r.base }

func (r *Remote) url(key artifact.Key) string {
	return r.base + "/artifacts/" + string(key)
}

func (r *Remote) miss() ([]byte, bool, error) {
	r.misses.Add(1)
	r.missC.Inc()
	return nil, false, nil
}

// Get implements artifact.Store. Every failure mode short of a corrupt
// payload is a miss, never an error (see the type comment).
func (r *Remote) Get(key artifact.Key) ([]byte, bool, error) {
	resp, err := r.client.Get(r.url(key))
	if err != nil {
		return r.miss()
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBodyBytes+1))
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(blob) > maxProxyBodyBytes {
		return r.miss()
	}
	if err := artifact.CheckEnvelope(blob); err != nil {
		// The remote handed us bytes that aren't a valid artifact:
		// count the corruption, then fall back to a local re-solve.
		r.corrupt.Add(1)
		r.corruptC.Inc()
		return r.miss()
	}
	r.hits.Add(1)
	r.hitC.Inc()
	return blob, true, nil
}

// Put implements artifact.Store. Writes are best-effort: a dropped
// upload costs a future re-solve, never the current computation.
func (r *Remote) Put(key artifact.Key, blob []byte) error {
	req, err := http.NewRequest(http.MethodPut, r.url(key), bytes.NewReader(blob))
	if err != nil {
		return nil
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		r.puts.Add(1)
		r.putC.Inc()
	}
	return nil
}

// Stats implements artifact.Store.
func (r *Remote) Stats() artifact.Stats {
	return artifact.Stats{
		Hits:    r.hits.Load(),
		Misses:  r.misses.Load(),
		Puts:    r.puts.Load(),
		Corrupt: r.corrupt.Load(),
	}
}

// Ping verifies the artifact host is reachable (GET /healthz), so
// `mnoc serve -artifact-store` can warn loudly at startup instead of
// silently running with a cache that degrades every Get to a miss.
func (r *Remote) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("fleet: building ping for %s: %w", r.base, err)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: artifact store %s unreachable: %w", r.base, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: artifact store %s health: status %d", r.base, resp.StatusCode)
	}
	return nil
}
