package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"mnoc/internal/exp"
	"mnoc/internal/runner"
	"mnoc/internal/telemetry"
)

// testOptions keeps fleet tests fast: the same radix-16 scale the
// server tests use.
func testOptions() *exp.Options {
	return &exp.Options{N: 16, Seed: 1, QAPIters: 50, Cycles: 1e6, SimAccesses: 20}
}

func testRunner(t *testing.T) *runner.Runner {
	t.Helper()
	r, err := runner.New(runner.Config{Options: testOptions(), FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sweepEntries(t *testing.T, ids ...string) []exp.Entry {
	t.Helper()
	entries := make([]exp.Entry, len(ids))
	for i, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = e
	}
	return entries
}

// TestSweepMatchesSingleProcess pins the coordinator's core contract:
// a sharded sweep merges byte-identically to a single-process run of
// the same entries, regardless of worker count.
func TestSweepMatchesSingleProcess(t *testing.T) {
	ctx := context.Background()
	entries := sweepEntries(t, "table1", "fig2", "fig3")

	var single bytes.Buffer
	if err := testRunner(t).Run(ctx, &single, entries); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		r := testRunner(t)
		outs, err := RunUnits(ctx, EntryUnits(r, entries), workers, r.Telemetry())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := Merge(outs); !bytes.Equal(got, single.Bytes()) {
			t.Fatalf("workers=%d: sharded output differs from single-process run:\n--- sharded ---\n%s\n--- single ---\n%s",
				workers, got, single.Bytes())
		}
	}
}

// TestRunUnitsBlockedUnitDoesNotStall: the first unit blocks until the
// third has run, so the sweep finishes only if the other worker keeps
// taking units while one worker is blocked.
func TestRunUnitsBlockedUnitDoesNotStall(t *testing.T) {
	ctx := context.Background()
	thirdRan := make(chan struct{})
	units := []Unit{
		{ID: "blocker", Run: func(ctx context.Context, _ int) ([]byte, error) {
			select {
			case <-thirdRan:
				return []byte("a"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}},
		{ID: "w1-own", Run: func(context.Context, int) ([]byte, error) { return []byte("b"), nil }},
		{ID: "stealable", Run: func(context.Context, int) ([]byte, error) {
			close(thirdRan)
			return []byte("c"), nil
		}},
	}
	reg := telemetry.NewRegistry()
	outs, err := RunUnits(ctx, units, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(Merge(outs)); got != "abc" {
		t.Fatalf("merged %q, want \"abc\" (unit order)", got)
	}
	if units := reg.Snapshot().Counters[MetricSweepUnits]; units != 3 {
		t.Fatalf("units=%d, want 3", units)
	}
}

// TestRunUnitsError pins fail-fast: a failing unit cancels the run and
// its error names the unit.
func TestRunUnitsError(t *testing.T) {
	boom := errors.New("boom")
	units := []Unit{
		{ID: "ok", Run: func(context.Context, int) ([]byte, error) { return []byte("x"), nil }},
		{ID: "bad", Run: func(context.Context, int) ([]byte, error) { return nil, boom }},
	}
	_, err := RunUnits(context.Background(), units, 1, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want wrapped boom", err)
	}
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("bad")) {
		t.Fatalf("error %v does not name the failing unit", err)
	}
}

// TestFaultUnitsMatchSingleSweep pins the other sharding axis: a
// per-scale sharded fault sweep renders byte-identically to the
// single-process multi-scale sweep.
func TestFaultUnitsMatchSingleSweep(t *testing.T) {
	fc := runner.FaultConfig{
		N: 16, Bench: "syn_uniform", Cycles: 50_000, Flits: 2000, Seed: 1,
		Scales: []float64{0, 1, 2},
	}
	r := testRunner(t)
	single, err := r.FaultSweep(context.Background(), fc)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := single.Render(&want, false); err != nil {
		t.Fatal(err)
	}

	shards := make([]*runner.FaultSweepResult, len(fc.Scales))
	r2 := testRunner(t)
	if _, err := RunUnits(context.Background(), FaultUnits(r2, fc, shards), 3, r2.Telemetry()); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeFaultResults(fc, shards)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := merged.Render(&got, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sharded fault sweep differs:\n--- sharded ---\n%s\n--- single ---\n%s", got.Bytes(), want.Bytes())
	}
}

func TestMergeFaultResultsValidation(t *testing.T) {
	fc := runner.FaultConfig{Scales: []float64{0, 1}}
	if _, err := MergeFaultResults(fc, make([]*runner.FaultSweepResult, 1)); err == nil {
		t.Fatal("shard/scale count mismatch must error")
	}
	if _, err := MergeFaultResults(fc, make([]*runner.FaultSweepResult, 2)); err == nil {
		t.Fatal("nil shard must error")
	}
}

// TestRunUnitsWorkerIndexBounds pins that worker indices passed to
// units stay within [0, workers), since remote units use them to pick
// endpoints.
func TestRunUnitsWorkerIndexBounds(t *testing.T) {
	const workers = 3
	units := make([]Unit, 10)
	for i := range units {
		units[i] = Unit{ID: fmt.Sprintf("u%d", i), Run: func(_ context.Context, w int) ([]byte, error) {
			if w < 0 || w >= workers {
				return nil, fmt.Errorf("worker index %d out of range", w)
			}
			return nil, nil
		}}
	}
	if _, err := RunUnits(context.Background(), units, workers, nil); err != nil {
		t.Fatal(err)
	}
}
