package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestLoadRetriesOn429 pins the backoff contract: a 429 response with
// Retry-After is retried (bounded, with seeded jitter) instead of
// failing the request, every attempt stays visible in the per-status
// breakdown, and the retried count is reported.
func TestLoadRetriesOn429(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reject every odd attempt, so each request (very likely) sees
		// one 429 before succeeding.
		if attempts.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	res, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:     ts.URL,
		Requests:    6,
		Concurrency: 3,
		Retries:     3,
		RetrySeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("failures = %d with retries enabled: %+v", res.Failures, res)
	}
	if res.Statuses[http.StatusOK] != 6 {
		t.Errorf("successes = %d, want 6 (%+v)", res.Statuses[http.StatusOK], res.Statuses)
	}
	if res.Statuses[http.StatusTooManyRequests] == 0 {
		t.Errorf("429 attempts missing from the status breakdown: %+v", res.Statuses)
	}
	if res.Retries != res.Statuses[http.StatusTooManyRequests] {
		t.Errorf("retries = %d, want %d (every 429 retried)", res.Retries, res.Statuses[http.StatusTooManyRequests])
	}
}

// TestLoadNoRetriesByDefault: Retries = 0 keeps the old semantics — a
// 429 is the request's outcome and counts as a failure.
func TestLoadNoRetriesByDefault(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	res, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:     ts.URL,
		Requests:    4,
		Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 4 || res.Retries != 0 {
		t.Fatalf("failures = %d retries = %d, want 4 failures and no retries", res.Failures, res.Retries)
	}
}

// TestLoadCountsOnlySentRequestsOnCancel cancels the run from the
// server side after its fifth request: Requests must count the
// requests actually sent, which is what the per-status breakdown sums.
func TestLoadCountsOnlySentRequestsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 5 {
			cancel()
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	res, err := RunLoad(ctx, LoadOptions{BaseURL: ts.URL, Requests: 100, Concurrency: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sum := 0
	for _, n := range res.Statuses {
		sum += n
	}
	if res.Requests != sum {
		t.Fatalf("Requests = %d, statuses sum to %d (%v)", res.Requests, sum, res.Statuses)
	}
	if res.Requests >= 100 {
		t.Fatalf("Requests = %d after cancelling at the fifth hit", res.Requests)
	}
}
