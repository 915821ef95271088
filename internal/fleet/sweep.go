package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/fanout"
	"mnoc/internal/telemetry"
)

// remoteRetries bounds how many 429 responses one experiment absorbs
// before giving up; waits honour the server's Retry-After ask.
const remoteRetries = 8

// RemoteSweep runs the experiment ids on live backends and returns
// their tables rendered in id order. Worker w of a `workers`-wide pool
// POSTs each id it takes to /v1/bench on endpoints[w%len(endpoints)],
// so the pool doubles as the load balancer, and renders the returned
// tables locally with the Fprint `mnoc bench` uses: the output is
// byte-identical whichever side ran the solve. The first error
// cancels the run (remaining ids never start) and names its id. reg
// may be nil; with a registry each completed id counts into
// fleet.sweep.units.
func RemoteSweep(ctx context.Context, ids, endpoints []string, workers int, timeout time.Duration, reg *telemetry.Registry) ([]byte, error) {
	client := &http.Client{Timeout: timeout}
	unitsC := reg.Counter(MetricSweepUnits)
	outs := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	fanout.Run(runCtx, len(ids), workers, func(worker, i int) {
		out, err := remoteTables(runCtx, client, endpoints[worker%len(endpoints)], ids[i])
		unitsC.Inc()
		if err != nil {
			errs[i] = fmt.Errorf("fleet: sweep %s: %w", ids[i], err)
			cancel()
			return
		}
		outs[i] = out
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: sweep interrupted: %w", err)
	}
	return bytes.Join(outs, nil), nil
}

// remoteTables runs one experiment on endpoint and renders its tables.
func remoteTables(ctx context.Context, client *http.Client, endpoint, id string) ([]byte, error) {
	tables, err := remoteBench(ctx, client, endpoint, id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, t := range tables {
		if err := t.Fprint(&buf); err != nil {
			return nil, fmt.Errorf("rendering table %s: %w", t.ID, err)
		}
	}
	return buf.Bytes(), nil
}

// remoteBench runs one experiment on a backend, retrying admission
// pushback (429) with the server's Retry-After delay.
func remoteBench(ctx context.Context, client *http.Client, endpoint, id string) ([]*exp.Table, error) {
	body, err := json.Marshal(map[string]string{"id": id})
	if err != nil {
		return nil, fmt.Errorf("encoding bench request: %w", err)
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint+"/v1/bench", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("building bench request for %s: %w", endpoint, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", endpoint, err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("reading bench response from %s: %w", endpoint, err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var tables []*exp.Table
			if err := json.Unmarshal(blob, &tables); err != nil {
				return nil, fmt.Errorf("decoding bench response from %s: %w", endpoint, err)
			}
			return tables, nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < remoteRetries:
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("%s: %w", endpoint, ctx.Err())
			case <-t.C:
			}
		default:
			return nil, fmt.Errorf("%s: bench status %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(blob))
		}
	}
}
