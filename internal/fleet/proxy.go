package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"mnoc/internal/server"
	"mnoc/internal/telemetry"
)

// ProxyConfig configures a fleet proxy (`mnoc proxy`).
type ProxyConfig struct {
	// Backends are the replica base URLs (e.g. "http://host:8080").
	Backends []string
	// Replicas is the vnode count per backend (DefaultReplicas if 0).
	Replicas int
	// HealthInterval is the /healthz probe period (1s if 0).
	HealthInterval time.Duration
	// MaxFailovers bounds how many ADDITIONAL backends an attempt may
	// fail over to after a connection error (default 2, capped at ring
	// size - 1). 429 responses never fail over: the owner replica is
	// authoritative for coalescing, and its admission pushback must
	// reach the client intact.
	MaxFailovers int
	// Version is reported on /version.
	Version string
}

// Proxy fronts a fleet of mnoc serve replicas. It consistent-hashes
// each request's flight key over the healthy backends so identical
// requests land on — and coalesce at — one replica, fleet-wide.
type Proxy struct {
	cfg      ProxyConfig
	ring     *Ring
	reg      *telemetry.Registry
	client   *http.Client
	health   *health
	draining atomic.Bool

	requests  *telemetry.Counter
	failovers *telemetry.Counter
	reqMS     *telemetry.Histogram
}

// maxProxyBodyBytes bounds a buffered request body. Matches the
// artifact-serve limit: artifact PUTs are the largest bodies a fleet
// carries.
const maxProxyBodyBytes = 256 << 20

// NewProxy validates the config and builds the routing ring.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	ring, err := NewRing(cfg.Backends, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if cfg.MaxFailovers == 0 {
		cfg.MaxFailovers = 2
	}
	if cfg.MaxFailovers > ring.Size()-1 {
		cfg.MaxFailovers = ring.Size() - 1
	}
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	return &Proxy{
		cfg:  cfg,
		ring: ring,
		reg:  reg,
		// No client-side timeout: the incoming request's context bounds
		// each attempt, and backends enforce their own solve timeouts.
		client:    &http.Client{},
		health:    newHealth(ring.Backends(), cfg.HealthInterval, reg.Counter(MetricProxyEvictions), reg.Counter(MetricProxyReadmissions)),
		requests:  reg.Counter(MetricProxyRequests),
		failovers: reg.Counter(MetricProxyFailovers),
		reqMS:     reg.Histogram(MetricProxyRequestMS),
	}, nil
}

// Ring exposes the routing ring (tests and /version).
func (p *Proxy) Ring() *Ring { return p.ring }

// Handler returns the proxy's HTTP surface. /healthz, /version and
// /metrics are answered by the proxy itself (a fleet has its own
// health and its own counters); every other path is routed to a
// backend by flight key.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", p.handleHealthz)
	mux.HandleFunc("/version", p.handleVersion)
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/", p.route)
	return mux
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteHealthz(w, p.draining.Load())
}

func (p *Proxy) handleVersion(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"version": p.cfg.Version,
		"role":    "proxy",
		"ring":    p.ring.Size(),
		"healthy": p.health.healthyCount(),
	})
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	_ = server.WriteMetrics(w, r, p.reg, map[string]any{"subcommand": "proxy", "ring": p.ring.Size()})
}

// flightKey derives the routing key for a request. API requests use
// the SAME canonical derivation the backend's flight group uses
// (internal/server/keys.go), so the proxy's placement and the
// backend's coalescing agree. Artifact paths route by content key.
// Anything else routes by path plus a body digest — stable, but with
// no cross-request coalescing claim.
func flightKey(path string, body []byte) string {
	switch path {
	case "/v1/solve":
		var req server.SolveRequest
		if json.Unmarshal(body, &req) == nil {
			return req.FlightKey()
		}
	case "/v1/evaluate":
		var req server.EvaluateRequest
		if json.Unmarshal(body, &req) == nil {
			if key, err := req.FlightKey(); err == nil {
				return key
			}
		}
	case "/v1/bench":
		var req server.BenchRequest
		if json.Unmarshal(body, &req) == nil {
			return req.FlightKey()
		}
	}
	if strings.HasPrefix(path, "/artifacts/") {
		return path
	}
	// Malformed bodies fall through here too: the owner backend will
	// reject them with a proper 400.
	sum := sha256.Sum256(body)
	return path + "|" + hex.EncodeToString(sum[:8])
}

func (p *Proxy) route(w http.ResponseWriter, r *http.Request) {
	p.requests.Inc()
	begin := time.Now()
	defer func() {
		p.reqMS.Observe(float64(time.Since(begin)) / float64(time.Millisecond))
	}()

	// Buffer the body up front: failover needs to replay it, and the
	// flight key may be derived from it.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBodyBytes+1))
	if err != nil {
		p.writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: reading request body: %w", err))
		return
	}
	if len(body) > maxProxyBodyBytes {
		p.writeError(w, http.StatusRequestEntityTooLarge, errors.New("fleet: request body exceeds size limit"))
		return
	}

	key := flightKey(r.URL.Path, body)
	// Healthy nodes first, in ring order from the owner; down nodes
	// kept as a last resort so a stale eviction can't black-hole a key.
	healthy, down := p.health.partition(p.ring.Seq(key, p.ring.Size()))
	candidates := append(healthy, down...)
	attempts := p.cfg.MaxFailovers + 1
	if attempts > len(candidates) {
		attempts = len(candidates)
	}

	var lastErr error
	for i := 0; i < attempts; i++ {
		backend := candidates[i]
		if i > 0 {
			p.failovers.Inc()
		}
		if err := p.forward(r.Context(), w, r, backend, body); err != nil {
			// Connection/transport error: the backend never produced a
			// response. Evict it and try the next ring node.
			p.health.markDown(backend)
			lastErr = err
			continue
		}
		p.health.markUp(backend)
		return
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: no backend available")
	}
	p.writeError(w, http.StatusBadGateway, fmt.Errorf("fleet: all %d attempt(s) for %s failed: %w", attempts, key, lastErr))
}

// forward replays the request against one backend and, on success,
// copies the response to the client. The response body is read IN FULL
// before anything is written to the client: a backend dying mid-body
// must remain a failover, not a truncated client response. Any
// response — including a 429 with its Retry-After — counts as success
// and passes through verbatim.
func (p *Proxy) forward(ctx context.Context, w http.ResponseWriter, r *http.Request, backend string, body []byte) error {
	url := backend + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(ctx, r.Method, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: building request for %s: %w", backend, err)
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", backend, err)
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("fleet: reading response from %s: %w", backend, err)
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("Content-Length", fmt.Sprintf("%d", len(respBody)))
	w.WriteHeader(resp.StatusCode)
	if r.Method != http.MethodHead {
		_, _ = w.Write(respBody)
	}
	return nil
}

func (p *Proxy) writeError(w http.ResponseWriter, status int, err error) {
	server.WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// StartDrain flips the proxy's /healthz to 503.
func (p *Proxy) StartDrain() { p.draining.Store(true) }

// Serve runs the proxy on addr (":0" picks a free port) until ctx is
// cancelled, then drains in-flight requests for up to drain, through
// the same listen-then-drain loop as `mnoc serve`. The health prober
// runs until Serve returns.
func (p *Proxy) Serve(ctx context.Context, addr string, drain time.Duration, ready func(boundAddr string)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go p.health.run(ctx, p.ring.Backends())
	return server.ListenAndDrain(ctx, addr, p.Handler(), drain, p.StartDrain, ready)
}
