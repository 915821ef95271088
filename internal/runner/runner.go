package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/mapping"
	"mnoc/internal/noc"
	"mnoc/internal/power"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

// Runner owns one configured evaluation: the artifact store, the
// experiment context over it, and the worker pool that schedules
// entries. Output is deterministic for a fixed Config regardless of
// the worker count: entries run concurrently but their tables are
// emitted in registry order.
type Runner struct {
	cfg     Config
	opt     exp.Options
	workers int
	store   artifact.Store
	ctx     *exp.Context
	tel     *telemetry.Registry
	tracer  *telemetry.Tracer
}

// New builds a runner from a resolved Config. With CacheDir set the
// store persists across processes (warm runs skip every solve);
// otherwise it is the per-process in-memory store. Every runner owns a
// telemetry registry and span tracer: the store, experiment context,
// simulations and worker pool all report into them, and Summary /
// WriteMetricsReport read them back.
func New(cfg Config) (*Runner, error) {
	opt, err := cfg.ResolveOptions()
	if err != nil {
		return nil, err
	}
	tel := telemetry.NewRegistry()
	registerRunMetrics(tel)
	tracer := telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	store := cfg.Store
	if store == nil {
		store, err = NewStore(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
	}
	store = artifact.Instrument(store, tel)
	ctx, err := exp.NewContextWithStore(opt, store)
	if err != nil {
		return nil, fmt.Errorf("runner: building experiment context: %w", err)
	}
	ctx.Instrument(tel, tracer)
	return &Runner{
		cfg: cfg, opt: opt, workers: cfg.ResolveWorkers(),
		store: store, ctx: ctx, tel: tel, tracer: tracer,
	}, nil
}

// registerRunMetrics pre-creates the instrumentation surface shared by
// every run, so metric reports list the full name set (zero-valued
// where a path never ran) and the golden-names diff
// (testdata/golden/metrics_names.txt, `make metrics-check`) is stable
// across cold and warm caches. Per-mode power histograms are the one
// dynamic family: they appear as the evaluated designs require.
func registerRunMetrics(reg *telemetry.Registry) {
	for _, name := range []string{
		artifact.MetricHit, artifact.MetricMiss, artifact.MetricPut, artifact.MetricCorrupt,
		"solve.count", "solve.shapes", "solve.qap", "solve.networks", "solve.sims",
		"runner.entries", "runner.entry_errors",
		"sim.runs", "sim.accesses", "sim.l2_misses", "sim.packets",
		"sim.sends", "sim.retries", "sim.nacks", "sim.lost",
		"noc.replay.packets", "noc.replay.flits",
		"power.evaluations",
		"fault.points", "fault.point_errors",
	} {
		//mnoclint:allow metricnames warm-up loop over the fixed literal list above; the name set is pinned by testdata/golden/metrics_names.txt
		reg.Counter(name)
	}
	reg.Gauge("runner.queue_depth")
	reg.Gauge("runner.active")
	reg.Histogram(artifact.MetricGetMS, artifact.GetMSBuckets...)
	reg.Histogram("artifact.decode_ms", artifact.GetMSBuckets...)
	reg.Histogram("runner.entry_ms", EntryMSBuckets...)
	reg.Histogram("noc.replay.latency_cycles", noc.ReplayLatencyBuckets[:]...)
	reg.Histogram("power.watts", power.PowerWattsBuckets...)
}

// EntryMSBuckets are the bucket bounds (milliseconds) of the per-entry
// wall-time histogram runner.entry_ms.
var EntryMSBuckets = []float64{1, 10, 100, 1000, 10_000, 60_000, 600_000}

// NewStore builds the artifact store a Config implies: disk-backed
// when cacheDir is non-empty, in-memory otherwise. Subcommands that do
// not need the experiment context (power, topo, fault) use this
// directly.
func NewStore(cacheDir string) (artifact.Store, error) {
	if cacheDir != "" {
		d, err := artifact.NewDisk(cacheDir)
		if err != nil {
			return nil, fmt.Errorf("runner: opening cache dir %s: %w", cacheDir, err)
		}
		return d, nil
	}
	return artifact.NewMemory(), nil
}

// Context exposes the experiment context.
func (r *Runner) Context() *exp.Context { return r.ctx }

// Options returns the resolved experiment options.
func (r *Runner) Options() exp.Options { return r.opt }

// Store exposes the artifact store.
func (r *Runner) Store() artifact.Store { return r.store }

// Workers returns the resolved pool size.
func (r *Runner) Workers() int { return r.workers }

// Telemetry returns the run's metric registry.
func (r *Runner) Telemetry() *telemetry.Registry { return r.tel }

// Tracer returns the run's span tracer.
func (r *Runner) Tracer() *telemetry.Tracer { return r.tracer }

// Precompute builds the per-benchmark artefacts (calibrated traffic +
// QAP mappings) on the worker pool. It stops early when ctx is done.
func (r *Runner) Precompute(ctx context.Context) error {
	if err := r.ctx.Precompute(ctx, r.workers); err != nil {
		return fmt.Errorf("runner: precompute: %w", err)
	}
	return nil
}

// RunEntries executes the experiments on the worker pool and returns
// their tables in entry order. Every failing entry is reported (errors
// joined in entry order), not just the first — unless Config.FailFast
// is set, in which case the first error cancels the run context so
// queued entries never start and in-flight entries abort at their next
// cancellation point. A done ctx (deadline or caller cancel) has the
// same draining effect. The pool reports into the run's telemetry:
// runner.queue_depth/active gauges track scheduling, each entry records
// a span plus its wall time in runner.entry_ms, and
// runner.entries/entry_errors count outcomes.
func (r *Runner) RunEntries(ctx context.Context, entries []exp.Entry) ([]*exp.Table, error) {
	runCtx := ctx
	var cancel context.CancelFunc
	if r.cfg.FailFast {
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	tables := make([]*exp.Table, len(entries))
	errs := make([]error, len(entries))
	sem := make(chan struct{}, r.workers)
	queued := r.tel.Gauge("runner.queue_depth")
	active := r.tel.Gauge("runner.active")
	entriesC := r.tel.Counter("runner.entries")
	errorsC := r.tel.Counter("runner.entry_errors")
	entryMS := r.tel.Histogram("runner.entry_ms", EntryMSBuckets...)
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		go func(i int, e exp.Entry) {
			defer wg.Done()
			queued.Add(1)
			select {
			case sem <- struct{}{}:
				queued.Add(-1)
			case <-runCtx.Done():
				queued.Add(-1)
				errs[i] = fmt.Errorf("%s: %w", e.ID, runCtx.Err())
				return
			}
			active.Add(1)
			defer func() { active.Add(-1); <-sem }()
			sp := r.tracer.StartSpan("runner", "entry."+e.ID)
			//mnoclint:allow determinism wall clock only feeds the runner.entry_ms telemetry histogram, never table output
			begin := time.Now()
			t, err := e.Run(runCtx, r.ctx)
			entryMS.Observe(float64(time.Since(begin)) / float64(time.Millisecond))
			entriesC.Inc()
			if err != nil {
				sp.Attr("error", err.Error())
				errorsC.Inc()
			}
			sp.End()
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", e.ID, err)
				if cancel != nil {
					cancel()
				}
				return
			}
			tables[i] = t
		}(i, e)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return tables, nil
}

// WriteTables renders tables to w in order, honouring the configured
// output shape (text or JSON array) and the optional CSV directory.
func (r *Runner) WriteTables(w io.Writer, tables []*exp.Table) error {
	if r.cfg.JSON {
		if _, err := fmt.Fprintln(w, "["); err != nil {
			return err
		}
		for i, t := range tables {
			blob, err := t.JSON()
			if err != nil {
				return fmt.Errorf("table %s: encode JSON: %w", t.ID, err)
			}
			sep := ","
			if i == len(tables)-1 {
				sep = ""
			}
			if _, err := fmt.Fprintf(w, "%s%s\n", blob, sep); err != nil {
				return fmt.Errorf("table %s: %w", t.ID, err)
			}
		}
		if _, err := fmt.Fprintln(w, "]"); err != nil {
			return err
		}
	} else {
		for _, t := range tables {
			if err := t.Fprint(w); err != nil {
				return fmt.Errorf("table %s: %w", t.ID, err)
			}
		}
	}
	if r.cfg.CSVDir != "" {
		for _, t := range tables {
			if err := writeCSV(r.cfg.CSVDir, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes entries and writes their tables to w.
func (r *Runner) Run(ctx context.Context, w io.Writer, entries []exp.Entry) error {
	tables, err := r.RunEntries(ctx, entries)
	if err != nil {
		return err
	}
	return r.WriteTables(w, tables)
}

// writeCSV writes one table's CSV file; every error names the table so
// a failed batch write is attributable without re-running.
func writeCSV(dir string, t *exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("table %s: %w", t.ID, err)
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return fmt.Errorf("table %s: %w", t.ID, err)
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("table %s: %w", t.ID, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("table %s: %w", t.ID, err)
	}
	return nil
}

// Summary describes the run's cache traffic and solve work in one
// line, e.g. for printing to stderr after a run, read from the
// telemetry registry (the one source of truth since the stderr
// counters of the original runner were replaced). A warm cache run
// shows misses=0 and all solve counts zero.
func (r *Runner) Summary() string {
	where := "memory"
	if loc, ok := artifact.Unwrap(r.store).(artifact.Locator); ok {
		where = loc.Location()
	}
	return fmt.Sprintf(
		"cache [%s]: %d hits, %d misses, %d writes | solves: shapes=%d qap=%d networks=%d sims=%d",
		where,
		r.tel.Counter(artifact.MetricHit).Value(),
		r.tel.Counter(artifact.MetricMiss).Value(),
		r.tel.Counter(artifact.MetricPut).Value(),
		r.tel.Counter("solve.shapes").Value(),
		r.tel.Counter("solve.qap").Value(),
		r.tel.Counter("solve.networks").Value(),
		r.tel.Counter("solve.sims").Value())
}

// MetricsReport bundles run metadata with the registry snapshot — the
// machine-diffable per-run summary behind the -metrics-out flag.
func (r *Runner) MetricsReport(meta map[string]any) telemetry.Report {
	return telemetry.Report{Meta: meta, Metrics: r.tel.Snapshot()}
}

// WriteMetricsFile writes the metrics report JSON to path.
func (r *Runner) WriteMetricsFile(path string, meta map[string]any) error {
	return writeFile(path, func(w io.Writer) error {
		return r.MetricsReport(meta).WriteJSON(w)
	})
}

// WriteTraceFile writes the recorded spans to path: JSON Lines when the
// path ends in .jsonl, Chrome trace-event JSON (chrome://tracing /
// Perfetto) otherwise.
func (r *Runner) WriteTraceFile(path string) error {
	return WriteTraceFile(r.tracer, path)
}

// WriteTraceFile exports a tracer to path, picking the format by
// extension (.jsonl = JSON Lines, anything else = Chrome trace JSON).
func WriteTraceFile(tracer *telemetry.Tracer, path string) error {
	return writeFile(path, func(w io.Writer) error {
		if filepath.Ext(path) == ".jsonl" {
			return tracer.WriteJSONL(w)
		}
		return tracer.WriteChromeTrace(w)
	})
}

// writeFile streams body into a freshly created file.
func writeFile(path string, body func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := body(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CachedTrace returns a benchmark's packet trace through an artifact
// store, so disk-cached runs (fault sweeps, trace replays) skip the
// regeneration.
func CachedTrace(store artifact.Store, b workload.Benchmark, n int, cycles uint64, flits int, seed int64) (*trace.Trace, error) {
	key := artifact.NewKey(artifact.KindTrace, artifact.VersionTrace).
		Str("bench", b.Name).
		Int("n", n).
		Uint64("cycles", cycles).
		Int("flits", flits).
		Int64("seed", seed).
		Sum()
	tr, err := artifact.GetOrBuild(store, key, artifact.DecodeTrace,
		func() (*trace.Trace, []byte, error) {
			tr, err := b.Trace(n, cycles, flits, seed)
			if err != nil {
				return nil, nil, err
			}
			blob, err := artifact.EncodeTrace(tr)
			return tr, blob, err
		})
	if err != nil {
		return nil, fmt.Errorf("runner: %s trace: %w", b.Name, err)
	}
	return tr, nil
}

// CachedQAP returns the QAP thread mapping for a traffic profile
// through an artifact store, keyed by the profile's content plus the
// search's seed and iteration budget. solve runs only on a miss — the
// mnoc power/topo subcommands use this so a --cache-dir run never
// repeats a taboo search over the same profile.
func CachedQAP(store artifact.Store, profile *trace.Matrix, seed int64, iters int, solve func() (mapping.Assignment, error)) (mapping.Assignment, error) {
	key := artifact.NewKey(artifact.KindAssignment, artifact.VersionAssignment).
		Bytes("matrix", artifact.EncodeMatrix(profile)).
		Int64("seed", seed).
		Int("iters", iters).
		Sum()
	a, err := artifact.GetOrBuild(store, key, artifact.DecodeAssignment,
		func() (mapping.Assignment, []byte, error) {
			a, err := solve()
			if err != nil {
				return nil, nil, err
			}
			return a, artifact.EncodeAssignment(a), nil
		})
	if err != nil {
		return nil, fmt.Errorf("runner: QAP mapping: %w", err)
	}
	return a, nil
}
