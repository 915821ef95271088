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
	"mnoc/internal/runner"
	"mnoc/internal/telemetry"
)

// Unit is one shard of a sweep: an independently runnable piece whose
// output is a deterministic byte rendering. The coordinator merges
// unit outputs in unit order, so a sharded sweep is byte-identical to
// a single-process run no matter which worker ran what, or when.
type Unit struct {
	// ID names the unit in errors and logs.
	ID string
	// Run produces the unit's rendered bytes. worker is the index of
	// the executing worker (remote units use it to pick an endpoint).
	Run func(ctx context.Context, worker int) ([]byte, error)
}

// RunUnits executes units on a pool of `workers` that take units in
// unit order from one shared queue, and returns their outputs in unit
// order. The first unit error cancels the run (remaining units never
// start); all recorded errors are joined. reg may be nil; with a
// registry, completed units count into fleet.sweep.units.
func RunUnits(ctx context.Context, units []Unit, workers int, reg *telemetry.Registry) ([][]byte, error) {
	unitsC := reg.Counter(MetricSweepUnits)
	results := make([][]byte, len(units))
	errs := make([]error, len(units))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	fanout.Run(runCtx, len(units), workers, func(worker, i int) {
		out, err := units[i].Run(runCtx, worker)
		unitsC.Inc()
		if err != nil {
			errs[i] = fmt.Errorf("fleet: sweep unit %s: %w", units[i].ID, err)
			cancel()
			return
		}
		results[i] = out
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: sweep interrupted: %w", err)
	}
	return results, nil
}

// Merge concatenates unit outputs in unit order. With units built by
// EntryUnits (or RemoteEntryUnits) over the same entry list a
// single-process `mnoc bench` would run, the merged bytes equal that
// run's table output exactly — pinned by TestSweepMatchesSingleProcess
// and the CI fleet-smoke diff.
func Merge(outputs [][]byte) []byte {
	var buf bytes.Buffer
	for _, out := range outputs {
		buf.Write(out)
	}
	return buf.Bytes()
}

// EntryUnits shards a bench run one experiment per unit, all sharing
// one Runner — so units share its artifact store, worker pool and
// in-process memoisation, exactly like a single-process run.
func EntryUnits(r *runner.Runner, entries []exp.Entry) []Unit {
	units := make([]Unit, len(entries))
	for i, e := range entries {
		e := e
		units[i] = Unit{
			ID: e.ID,
			Run: func(ctx context.Context, _ int) ([]byte, error) {
				tables, err := r.RunEntries(ctx, []exp.Entry{e})
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
			},
		}
	}
	return units
}

// remoteRetries bounds how many 429 responses a remote unit absorbs
// before giving up; waits honour the server's Retry-After ask.
const remoteRetries = 8

// RemoteEntryUnits shards a bench run across live backends: each unit
// POSTs its experiment id to /v1/bench on endpoints[worker%len] (so
// the worker pool doubles as the load balancer), decodes the
// table JSON, and renders it locally with the same Fprint the local
// path uses — keeping the merged output byte-identical regardless of
// which side ran the solve.
func RemoteEntryUnits(ids []string, endpoints []string, timeout time.Duration) []Unit {
	client := &http.Client{Timeout: timeout}
	units := make([]Unit, len(ids))
	for i, id := range ids {
		id := id
		units[i] = Unit{
			ID: id,
			Run: func(ctx context.Context, worker int) ([]byte, error) {
				endpoint := endpoints[worker%len(endpoints)]
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
			},
		}
	}
	return units
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

// FaultUnits shards a fault sweep one scale per unit: a single-scale
// FaultSweep generates exactly the schedule the multi-scale sweep
// generates for that scale (the injector is seeded per scale), so the
// merged points equal the single-process sweep's — pinned by
// TestFaultUnitsMatchSingleSweep. Per-scale results land in the
// caller's slice by index (len(fc.Scales)); the rendered output comes
// from MergeFaultResults afterwards, not from the units (Render is a
// whole-sweep operation).
func FaultUnits(r *runner.Runner, fc runner.FaultConfig, results []*runner.FaultSweepResult) []Unit {
	units := make([]Unit, len(fc.Scales))
	for i, sc := range fc.Scales {
		i, sc := i, sc
		units[i] = Unit{
			ID: fmt.Sprintf("fault@%g", sc),
			Run: func(ctx context.Context, _ int) ([]byte, error) {
				one := fc
				one.Scales = []float64{sc}
				one.SaveSchedulePath = ""
				res, err := r.FaultSweep(ctx, one)
				if err != nil {
					return nil, err
				}
				results[i] = res
				return nil, nil
			},
		}
	}
	return units
}

// MergeFaultResults reassembles sharded per-scale results into the
// result a single-process FaultSweep(fc) returns, ready to Render.
// The sweep-wide header fields (bench name, mode count, offered
// packets) are identical across shards — they derive from the config,
// not the scale — so they come from the first shard.
func MergeFaultResults(fc runner.FaultConfig, results []*runner.FaultSweepResult) (*runner.FaultSweepResult, error) {
	if len(results) != len(fc.Scales) {
		return nil, fmt.Errorf("fleet: %d fault shards for %d scales", len(results), len(fc.Scales))
	}
	merged := &runner.FaultSweepResult{Config: fc}
	for i, res := range results {
		if res == nil || len(res.Points) != 1 {
			return nil, fmt.Errorf("fleet: fault shard %d incomplete", i)
		}
		if i == 0 {
			merged.Bench = res.Bench
			merged.Modes = res.Modes
			merged.Packets = res.Packets
		}
		merged.Points = append(merged.Points, res.Points[0])
	}
	return merged, nil
}
