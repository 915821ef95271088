package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/power"
	"mnoc/internal/runner"
	"mnoc/internal/workload"
)

// expectedSolves is what one cold quick-scale `-exp everything` run
// must solve: a shape and a QAP mapping per benchmark, eleven splitter
// networks and one simulation pair per benchmark.
var expectedSolves = exp.SolveCounts{Shapes: 12, QAP: 12, Networks: 11, Sims: 12}

// rep is one cold reproduction: runner.New + Precompute (set-up), then
// RunEntries over every entry on a fresh in-memory artifact store.
type rep struct {
	r       *runner.Runner
	setup   time.Duration
	run     time.Duration
	ops     int
	failed  int
	correct bool
}

// reproduceRep runs one cold, untraced reproduction and checks every
// table.
func reproduceRep(ctx context.Context, seed int64, want map[string]string) (rep, error) {
	begin := time.Now()
	r, err := runner.New(runner.Config{Scale: "quick", Seed: seed, Workers: workers})
	if err != nil {
		return rep{}, err
	}
	if err := r.Precompute(ctx); err != nil {
		return rep{}, err
	}
	out := rep{r: r, setup: time.Since(begin)}
	tables, errs, _, run := runEntries(ctx, r, nil, 0, 0)
	out.run = run
	out.tallyTables(tables, errs, wantFor(r, want))
	return out, nil
}

// wantFor returns the golden renderings when the run reproduces the
// golden's seed, and none otherwise.
func wantFor(r *runner.Runner, want map[string]string) map[string]string {
	if r.Options().Seed != 1 {
		return nil
	}
	return want
}

// tallyTables checks each entry's table and the run's solve counts.
func (o *rep) tallyTables(tables []*exp.Table, errs []error, want map[string]string) {
	o.correct = true
	for i := range tables {
		o.ops++
		err := errs[i]
		if err == nil {
			err = checkTable(tables[i], want)
		}
		if err != nil {
			o.failed++
			fmt.Fprintln(os.Stderr, "perfbench: reproduce-quick:", err)
		}
	}
	if got := o.r.Context().Solves(); got != expectedSolves {
		o.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: reproduce-quick: solves %+v, want %+v\n", got, expectedSolves)
	}
}

// runEntries is Runner.RunEntries over every entry, each wrapped so its
// table, error and wall time are captured from outside (and, when rec
// is set, recorded as an exp span under parent, tagged with req).
func runEntries(ctx context.Context, r *runner.Runner, rec *recorder, parent, req int) ([]*exp.Table, []error, []float64, time.Duration) {
	entries := allEntries()
	tables := make([]*exp.Table, len(entries))
	errs := make([]error, len(entries))
	walls := make([]float64, len(entries))
	wrapped := make([]exp.Entry, len(entries))
	for i, e := range entries {
		wrapped[i] = exp.Entry{ID: e.ID, Title: e.Title, Run: func(ctx context.Context, c *exp.Context) (*exp.Table, error) {
			end, _ := rec.start(parent, req, "exp", "exp.entry."+e.ID)
			begin := time.Now()
			t, err := e.Run(ctx, c)
			walls[i] = float64(time.Since(begin)) / float64(time.Millisecond)
			end()
			tables[i], errs[i] = t, err
			return t, err
		}}
	}
	begin := time.Now()
	// The joined error repeats errs, which the caller reports per entry.
	_, _ = r.RunEntries(ctx, wrapped)
	return tables, errs, walls, time.Since(begin)
}

// reproduceQuick is `mnoc bench -scale quick -exp everything` in
// process, repeated cold until the measured phase is used up.
func reproduceQuick(ctx context.Context, cfg runConfig) (outcome, error) {
	want, err := goldenTables(cfg.golden)
	if err != nil {
		return outcome{}, err
	}
	if cfg.trace {
		return reproduceTraced(ctx, cfg, want)
	}
	o := outcome{correct: true}
	// The first reproduction in a process pays for heap growth and
	// page faults no later one does; it is checked but not timed.
	warm, err := reproduceRep(ctx, cfg.seed, want)
	if err != nil {
		return outcome{}, err
	}
	o.tallyRep(warm)
	// A reproduction is one request: from runner.New to the last table.
	var setups, runs, totals []float64
	var last rep
	begin := time.Now()
	for len(runs) == 0 || time.Since(begin).Seconds()+runs[len(runs)-1]/2 < cfg.seconds {
		runtime.GC() // the previous reproduction's garbage is not this one's cost
		last, err = reproduceRep(ctx, cfg.seed, want)
		if err != nil {
			return outcome{}, err
		}
		o.tallyRep(last)
		setups = append(setups, last.setup.Seconds())
		runs = append(runs, last.run.Seconds())
		totals = append(totals, (last.setup + last.run).Seconds())
	}
	o.metrics = map[string]float64{
		"setup_s":        median(setups),
		"run_s":          median(runs),
		"throughput_rps": float64(len(totals)) / time.Since(begin).Seconds(),
		"latency_p50_ms": quantile(totals, 0.5) * 1000,
		"latency_p90_ms": quantile(totals, 0.9) * 1000,
		// The last runner (its artifact store and memo) is what a
		// caller holding the result keeps alive.
		"live_heap_mb": liveHeapMB(),
	}
	runtime.KeepAlive(last.r)
	return o, nil
}

// reproduceTraced walks the pipeline's stages in order on a fresh
// runner, one public call per span, then runs every entry on the warmed
// context. It alternates with untraced reproductions until the measured
// phase is used up and reports per-walk means, so the stage walls plus
// exp.unattributed_ms add up to trace.total_ms.
func reproduceTraced(ctx context.Context, cfg runConfig, want map[string]string) (outcome, error) {
	o := outcome{correct: true}
	warm, err := reproduceRep(ctx, cfg.seed, want) // untimed warm-up
	if err != nil {
		return outcome{}, err
	}
	o.tallyRep(warm)
	rec := newRecorder()
	sum := map[string]float64{}
	var untraced []float64
	var last *runner.Runner
	walks := 0
	var round time.Duration
	begin := time.Now()
	for walks == 0 || time.Since(begin)+round/2 < time.Duration(cfg.seconds*float64(time.Second)) {
		roundBegin := time.Now()
		plain, err := reproduceRep(ctx, cfg.seed, want)
		if err != nil {
			return outcome{}, err
		}
		o.tallyRep(plain)
		untraced = append(untraced, ms(plain.setup+plain.run))
		w, err := reproduceWalk(ctx, cfg.seed, want, rec, walks+1)
		if err != nil {
			return outcome{}, err
		}
		o.tallyRep(w.rep)
		for k, v := range w.metrics {
			sum[k] += v
		}
		last = w.r
		walks++
		round = time.Since(roundBegin)
	}
	o.metrics = map[string]float64{}
	for k, v := range sum {
		o.metrics[k] = v / float64(walks)
	}
	o.metrics["trace.overhead_ms"] = o.metrics["trace.total_ms"] - mean(untraced)
	for l, d := range rec.selfTimes(0) {
		o.metrics["self."+l+"_ms"] = ms(d) / float64(walks)
	}
	snap := last.Telemetry().Snapshot()
	for _, c := range runCounters {
		o.metrics[c] = float64(snap.Counters[c])
	}
	return o, rec.write(cfg.spans)
}

// tallyRep adds a reproduction's checked operations to the outcome.
func (o *outcome) tallyRep(r rep) {
	o.attempted += r.ops
	o.failed += r.failed
	o.correct = o.correct && r.correct
}

// walk is one traced reproduction.
type walk struct {
	rep
	metrics map[string]float64
}

// reproduceWalk times, in order: runner.New; Shape, QAPMapping,
// DesignNetwork and Performance over every benchmark and design kind;
// MNoC.Evaluate of every design on every benchmark's naive and mapped
// traffic; then RunEntries over all entries on the warmed context.
// Each stage is a child span of the walk's root span.
func reproduceWalk(ctx context.Context, seed int64, want map[string]string, rec *recorder, id int) (walk, error) {
	begin := time.Now()
	endRoot, root := rec.start(0, id, "bench", "reproduce")
	st := newStages(rec, root, id)
	var r *runner.Runner
	if err := st.time("runner", "runner.new", func(int) (err error) {
		r, err = runner.New(runner.Config{Scale: "quick", Seed: seed, Workers: workers})
		return err
	}); err != nil {
		return walk{}, err
	}
	c := r.Context()
	names := workload.Names()
	var evalUS []float64
	steps := []stageStep{
		{"workload", "workload.shape", names, func(_ int, b string) error { _, err := c.Shape(ctx, b); return err }},
		{"mapping", "mapping.qap", names, func(_ int, b string) error { _, err := c.QAPMapping(ctx, b); return err }},
		{"splitter", "splitter.design_network", exp.DesignKinds(), func(_ int, k string) error { _, err := c.DesignNetwork(ctx, k); return err }},
		{"sim", "sim.performance", names, func(_ int, b string) error { _, _, err := c.Performance(ctx, b); return err }},
		{"power", "power.evaluate", exp.DesignKinds(), func(span int, k string) error {
			us, err := evaluateDesign(ctx, c, k, power.LossAverage, trafficFor(ctx, c, []bool{false, true}), rec, span, id)
			evalUS = append(evalUS, us...)
			return err
		}},
	}
	accesses, err := st.runSteps(r.Telemetry(), steps)
	if err != nil {
		return walk{}, err
	}
	var tables []*exp.Table
	var errs []error
	var walls []float64
	_ = st.time("runner", "runner.run_entries", func(span int) error {
		tables, errs, walls, _ = runEntries(ctx, r, rec, span, id)
		return nil
	})
	endRoot()
	total := time.Since(begin)

	w := walk{rep: rep{r: r}, metrics: map[string]float64{}}
	w.tallyTables(tables, errs, wantFor(r, want))
	st.report(w.metrics, total, accesses)
	w.metrics["power.evaluate_us"] = quantile(evalUS, 0.5)
	for i, e := range allEntries() {
		w.metrics["exp.entry."+e.ID+"_ms"] = walls[i]
	}
	return w, nil
}
