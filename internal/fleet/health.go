package fleet

import (
	"context"
	"net/http"
	"sync"
	"time"

	"mnoc/internal/telemetry"
)

// health tracks per-backend liveness for the proxy. State changes come
// from two sources: the active prober (run), which GETs each backend's
// /healthz on an interval, and the proxy's forwarding path, which
// marks a backend down on a connection error (passive eviction) and up
// on any successful response (passive re-admission). Transitions — not
// probes — drive the eviction/readmission counters, so the metrics
// count membership changes rather than ticks.
type health struct {
	client   *http.Client
	interval time.Duration
	evict    *telemetry.Counter
	readmit  *telemetry.Counter

	mu sync.Mutex
	up map[string]bool
}

// newHealth starts every backend optimistically up: a backend that is
// down at boot costs one failed attempt (then failover), which is
// cheaper than refusing all traffic until the first probe round.
func newHealth(backends []string, interval time.Duration, evict, readmit *telemetry.Counter) *health {
	if interval <= 0 {
		interval = time.Second
	}
	probeTimeout := interval
	if probeTimeout > 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	up := make(map[string]bool, len(backends))
	for _, b := range backends {
		up[b] = true
	}
	return &health{
		client:   &http.Client{Timeout: probeTimeout},
		interval: interval,
		evict:    evict,
		readmit:  readmit,
		up:       up,
	}
}

func (h *health) healthyCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, ok := range h.up {
		if ok {
			n++
		}
	}
	return n
}

// partition splits backends into (healthy, down), preserving order.
// The proxy tries healthy nodes first but keeps the down ones as a
// last resort — a stale "down" mark must not black-hole a key whose
// whole failover sequence flapped.
func (h *health) partition(backends []string) (healthy, down []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, b := range backends {
		if h.up[b] {
			healthy = append(healthy, b)
		} else {
			down = append(down, b)
		}
	}
	return healthy, down
}

func (h *health) markDown(backend string) {
	h.mu.Lock()
	was := h.up[backend]
	h.up[backend] = false
	h.mu.Unlock()
	if was {
		h.evict.Inc()
	}
}

func (h *health) markUp(backend string) {
	h.mu.Lock()
	was := h.up[backend]
	h.up[backend] = true
	h.mu.Unlock()
	if !was {
		h.readmit.Inc()
	}
}

// run probes every backend's /healthz on the interval until ctx is
// cancelled. A 200 re-admits; anything else (including a draining
// backend's 503) evicts.
func (h *health) run(ctx context.Context, backends []string) {
	t := time.NewTicker(h.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, b := range backends {
			if h.probe(ctx, b) {
				h.markUp(b)
			} else {
				h.markDown(b)
			}
		}
	}
}

func (h *health) probe(ctx context.Context, backend string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
