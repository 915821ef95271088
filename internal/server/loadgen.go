package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mnoc/internal/fanout"
	"mnoc/internal/telemetry"
)

// LoadOptions configures one load-generation run against a live
// server (`mnoc load`).
type LoadOptions struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// BaseURLs, when non-empty, wins over BaseURL and round-robins the
	// requests across several endpoints (request i goes to
	// BaseURLs[i%len]): the direct-to-backends baseline to compare
	// against a single through-proxy run (docs/FLEET.md).
	BaseURLs []string
	// Requests is the total request count.
	Requests int
	// Concurrency is the number of in-flight requests.
	Concurrency int
	// Mix lists the request bodies to cycle through deterministically
	// (request i sends Mix[i%len]). Empty gets DefaultMix.
	Mix []SolveRequest
	// Timeout bounds each request on the client side.
	Timeout time.Duration
	// Retries bounds how many times a 429 (admission-rejected) response
	// is retried before it becomes the request's outcome. The wait
	// honours the server's Retry-After header, with seeded jitter on top
	// so a retry herd spreads out. 0 disables retries (the old
	// behaviour).
	Retries int
	// RetrySeed seeds the per-worker jitter stream, making a load run's
	// retry schedule reproducible.
	RetrySeed int64
}

// DefaultMix cycles three cache-friendly solves across design kinds.
func DefaultMix() []SolveRequest {
	return []SolveRequest{
		{Bench: "fft", Kind: "comm4", QAP: true},
		{Bench: "barnes", Kind: "dist4"},
		{Bench: "water_s", Kind: "comm2", QAP: true},
	}
}

// LoadResult summarises a load run. Latency percentiles come from a
// client-side telemetry histogram (load.request_ms) via
// HistogramSnapshot.Quantile.
type LoadResult struct {
	Requests   int           `json:"requests"`
	Failures   int           `json:"failures"`
	Wall       time.Duration `json:"-"`
	WallMS     int64         `json:"wall_ms"`
	Throughput float64       `json:"throughput_rps"`
	P50MS      float64       `json:"p50_ms"`
	P90MS      float64       `json:"p90_ms"`
	P99MS      float64       `json:"p99_ms"`
	// Retries counts 429 responses that were retried (each retried
	// attempt also appears in Statuses[429]).
	Retries int `json:"retries"`
	// Statuses counts responses by HTTP status (0 = transport error),
	// including every retried attempt — so the 429 pressure the server
	// applied stays visible even when retries eventually succeed.
	Statuses map[int]int `json:"statuses"`
}

// String renders the one-line human summary `mnoc load` prints.
func (r *LoadResult) String() string {
	return fmt.Sprintf(
		"%d requests, %d failures in %.2fs (%.1f req/s) | latency p50=%.2fms p90=%.2fms p99=%.2fms",
		r.Requests, r.Failures, r.Wall.Seconds(), r.Throughput, r.P50MS, r.P90MS, r.P99MS)
}

// loadMSBuckets is the client-side latency layout: finer than the
// server's at the sub-millisecond end, since warm-cache solves are
// fast.
var loadMSBuckets = []float64{0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10_000}

// RunLoad fires opts.Requests POST /v1/solve requests at the server
// and reports throughput plus latency percentiles. The request mix is
// deterministic, so a repeat run against a warm server is pure cache
// hits — the acceptance check that coalescing plus the artifact cache
// hold up under concurrency.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadResult, error) {
	if opts.Requests <= 0 {
		return nil, fmt.Errorf("server: load needs requests > 0, got %d", opts.Requests)
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Concurrency > opts.Requests {
		opts.Concurrency = opts.Requests
	}
	if len(opts.Mix) == 0 {
		opts.Mix = DefaultMix()
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	bodies := make([][]byte, len(opts.Mix))
	for i, m := range opts.Mix {
		blob, err := json.Marshal(m)
		if err != nil {
			return nil, fmt.Errorf("server: encoding load-mix request %d: %w", i, err)
		}
		bodies[i] = blob
	}
	bases := opts.BaseURLs
	if len(bases) == 0 {
		bases = []string{opts.BaseURL}
	}
	client := &http.Client{Timeout: opts.Timeout}

	reg := telemetry.NewRegistry()
	lat := reg.Histogram("load.request_ms", loadMSBuckets...)
	var failures, retries atomic.Int64
	var mu sync.Mutex
	statuses := make(map[int]int)
	record := func(status int) {
		mu.Lock()
		statuses[status]++
		mu.Unlock()
	}

	// Per-worker jitter streams: workers never share a rand source, so
	// the schedule is reproducible at a given concurrency.
	rngs := make([]*rand.Rand, opts.Concurrency)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(opts.RetrySeed + int64(w)))
	}
	var sent atomic.Int64
	begin := time.Now()
	fanout.Run(ctx, opts.Requests, opts.Concurrency, func(worker, i int) {
		// Requests round-robin across the endpoint list by index, so a
		// multi-endpoint run spreads load evenly however the workers
		// are scheduled.
		url := bases[i%len(bases)] + "/v1/solve"
		status := fireWithRetry(ctx, client, url, bodies[i%len(bodies)], lat, opts.Retries, rngs[worker], &retries, record)
		sent.Add(1)
		if status != http.StatusOK {
			failures.Add(1)
		}
	})
	wall := time.Since(begin)

	snap := reg.Snapshot().Histograms["load.request_ms"]
	res := &LoadResult{
		Requests:   int(sent.Load()),
		Failures:   int(failures.Load()),
		Wall:       wall,
		WallMS:     wall.Milliseconds(),
		Throughput: float64(sent.Load()) / wall.Seconds(),
		P50MS:      snap.Quantile(0.50),
		P90MS:      snap.Quantile(0.90),
		P99MS:      snap.Quantile(0.99),
		Retries:    int(retries.Load()),
		Statuses:   statuses,
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// fireWithRetry sends one logical request, retrying admission
// rejections (429) up to retries times. Every attempt's status is
// recorded; the final attempt's status is the request's outcome. The
// wait between attempts is the server's Retry-After ask (or an
// exponential fallback when the header is absent) plus up to 50%
// jitter from the worker's seeded stream.
func fireWithRetry(ctx context.Context, client *http.Client, url string, body []byte,
	lat *telemetry.Histogram, retries int, rng *rand.Rand, retried *atomic.Int64, record func(int)) int {
	for attempt := 0; ; attempt++ {
		status, retryAfter := fire(ctx, client, url, body, lat)
		record(status)
		if status != http.StatusTooManyRequests || attempt >= retries || ctx.Err() != nil {
			return status
		}
		base := retryAfter
		if base <= 0 {
			base = time.Duration(100<<min(attempt, 6)) * time.Millisecond
		}
		sleep := base + time.Duration(rng.Float64()*float64(base)/2)
		retried.Add(1)
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return status
		case <-t.C:
		}
	}
}

// fire sends one request and returns its HTTP status (0 on transport
// failure) plus the parsed Retry-After delay on a 429, recording the
// latency.
func fire(ctx context.Context, client *http.Client, url string, body []byte, lat *telemetry.Histogram) (int, time.Duration) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	begin := time.Now()
	resp, err := client.Do(req)
	lat.Observe(float64(time.Since(begin)) / float64(time.Millisecond))
	if err != nil {
		return 0, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var retryAfter time.Duration
	if resp.StatusCode == http.StatusTooManyRequests {
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s >= 0 {
			retryAfter = time.Duration(s) * time.Second
		}
	}
	return resp.StatusCode, retryAfter
}
