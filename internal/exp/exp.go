// Package exp regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment is a function on a shared
// Context that returns a printable Table; the cmd/mnoc binary (bench subcommand) and
// the top-level benchmark suite drive them. DESIGN.md §3 maps each
// experiment to the paper artefact it reproduces, and EXPERIMENTS.md
// records paper-vs-measured numbers.
package exp

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mnoc/internal/fanout"
	"mnoc/internal/flight"
	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

// Options sets the scale of an experiment run.
type Options struct {
	// N is the crossbar radix (256 reproduces the paper).
	N int
	// Seed drives every stochastic component.
	Seed int64
	// QAPIters is the taboo-search budget per benchmark.
	QAPIters int
	// Cycles is the power-evaluation window in clock cycles.
	Cycles float64
	// SimAccesses is the per-core access count for performance
	// simulations (Table 1 / Fig 10 runtimes).
	SimAccesses int
}

// Paper returns the full-scale options matching the paper's setup.
func Paper() Options {
	return Options{N: 256, Seed: 1, QAPIters: 2000, Cycles: 1e6, SimAccesses: 1500}
}

// Quick returns reduced-scale options for tests: a radix-64 crossbar
// with short QAP runs. Relative results keep the paper's shape at this
// scale; absolute wattages are still Table 4-calibrated.
func Quick() Options {
	return Options{N: 64, Seed: 1, QAPIters: 400, Cycles: 1e6, SimAccesses: 300}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.N < 8 {
		return fmt.Errorf("exp: N = %d, want >= 8", o.N)
	}
	if o.Cycles <= 0 || o.SimAccesses <= 0 {
		return fmt.Errorf("exp: non-positive scale in %+v", o)
	}
	return nil
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries free-form lines printed after the table (heatmaps,
	// caveats, paper reference values).
	Notes []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if len(t.Header) > 0 {
		if err := printRow(t.Header); err != nil {
			return err
		}
	}
	for _, row := range t.Rows {
		if err := printRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// JSON renders the table as a machine-readable object (used by
// mnoc bench -json so downstream plotting does not have to scrape the
// aligned-column text).
func (t *Table) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header,omitempty"`
		Rows   [][]string `json:"rows,omitempty"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("exp: table %s JSON: %w", t.ID, err)
	}
	return b, nil
}

// WriteCSV renders the table as header + rows in CSV (used by
// mnoc bench -csv so results plot directly in external tools).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.Header) > 0 {
		if err := cw.Write(t.Header); err != nil {
			return fmt.Errorf("exp: table %s CSV header: %w", t.ID, err)
		}
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("exp: table %s CSV row: %w", t.ID, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("exp: table %s CSV flush: %w", t.ID, err)
	}
	return nil
}

// Context caches the expensive shared artefacts (calibrated traffic,
// QAP mappings, splitter designs, simulation runtimes) across
// experiments. All accessors are safe for concurrent use; Precompute
// exploits that to build the per-benchmark artefacts in parallel.
//
// Artefacts live in an artifact.Store keyed by a content hash of their
// inputs (options + device-configuration fingerprint + benchmark). The
// default store is in-memory — the per-run memoisation Context always
// had — and the runner swaps in a disk store (--cache-dir) so warm
// re-runs across processes skip every solve. A decoded-value memo and a
// flight.Group sit in front of the store, so each artefact is
// fetched/solved at most once per process even under the runner's
// parallel scheduling. The fetch/solve runs detached from the caller
// that started it: a cancelled caller leaves, the callers still
// waiting get the artefact, and the work stops only when every caller
// has left.
type Context struct {
	Opt Options
	Cfg power.Config

	store  artifact.Store
	cfgSig string // device-config fingerprint, folded into every key

	mu      sync.Mutex
	memo    map[memoKey]any
	flights *flight.Group

	base    *power.MNoC
	benches []workload.Benchmark

	// reg/tracer are the optional telemetry sinks (Instrument); nil-safe
	// handles make every metric call a no-op when unset.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer

	solveShapes, solveQAP, solveNetworks, solveSims atomic.Uint64
}

// SolveCounts reports how many expensive artefacts a context actually
// computed, as opposed to loading from its artifact store. On a warm
// cache run every field is zero.
type SolveCounts struct {
	Shapes, QAP, Networks, Sims uint64
}

// NewContext builds a context with a fresh in-memory artifact store.
func NewContext(opt Options) (*Context, error) {
	return NewContextWithStore(opt, artifact.NewMemory())
}

// NewContextWithStore builds a context over the given artifact store
// (e.g. a disk store shared across runs).
func NewContextWithStore(opt Options, store artifact.Store) (*Context, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	cfg := power.DefaultConfig(opt.N)
	base, err := power.NewBaseMNoC(cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: base mNoC for N=%d: %w", opt.N, err)
	}
	return &Context{
		Opt:     opt,
		Cfg:     cfg,
		store:   store,
		cfgSig:  artifact.Fingerprint(map[string]any{"cfg": cfg}),
		memo:    make(map[memoKey]any),
		flights: flight.New(nil),
		base:    base,
		benches: workload.All(),
	}, nil
}

// Store exposes the context's artifact store (for cache statistics).
func (c *Context) Store() artifact.Store { return c.store }

// Instrument attaches telemetry sinks: solve counters (solve.count and
// per-kind solve.*), artifact decode timings and spans around the
// expensive builds flow into reg/tracer. Call before any concurrent
// use of the context (the runner does this at construction). Either
// argument may be nil.
func (c *Context) Instrument(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	c.reg = reg
	c.tracer = tracer
	c.base.Instrument(reg)
}

// Telemetry returns the context's metric registry (nil when
// uninstrumented).
func (c *Context) Telemetry() *telemetry.Registry { return c.reg }

// noteSolve mirrors one expensive build into the registry: the total
// solve.count plus the per-kind counter the warm-cache regression
// asserts on.
func (c *Context) noteSolve(kind string) {
	c.reg.Counter("solve.count").Inc()
	//mnoclint:allow metricnames kind is one of the four fixed solve kinds (shapes/qap/networks/sims); the name set is pinned by testdata/golden/metrics_names.txt
	c.reg.Counter("solve." + kind).Inc()
}

// Solves returns the context's solve counters.
func (c *Context) Solves() SolveCounts {
	return SolveCounts{
		Shapes:   c.solveShapes.Load(),
		QAP:      c.solveQAP.Load(),
		Networks: c.solveNetworks.Load(),
		Sims:     c.solveSims.Load(),
	}
}

// key starts an artifact key carrying every run-scoping input shared by
// the solve pipeline: radix, seed, QAP budget, calibration window and
// the device-configuration fingerprint.
func (c *Context) key(kind string, version int) *artifact.KeyBuilder {
	return artifact.NewKey(kind, version).
		Str("cfg", c.cfgSig).
		Int("n", c.Opt.N).
		Int64("seed", c.Opt.Seed).
		Int("qapiters", c.Opt.QAPIters).
		Float("cycles", c.Opt.Cycles)
}

// memoKey names one in-process artefact: kind is its family (an
// artifact kind such as artifact.KindMatrix, or an in-process-only one
// such as kindMapped) and name the benchmark, design point or sample
// set within it. Every other input of the artifact key (options and
// device-configuration fingerprint) is fixed for the life of a
// Context, so the pair alone is unique in the memo and a hit compares
// two strings instead of hashing; the SHA-256 artifact key is derived
// (artifactKey) only when the store is consulted.
type memoKey struct{ kind, name string }

// The in-process-only memo families: they never reach the store.
const (
	kindMapped      = "mapped"
	kindSampled     = "sampled"
	kindBaseAverage = "basewatts/" + string(power.LossAverage)
	kindBaseWorst   = "basewatts/" + string(power.LossWorst)
)

// artifactKey is the store key of a stored memo family's artefact.
func (c *Context) artifactKey(k memoKey) artifact.Key {
	switch k.kind {
	case artifact.KindMatrix:
		return c.key(artifact.KindMatrix, artifact.VersionMatrix).Str("bench", k.name).Sum()
	case artifact.KindAssignment:
		return c.key(artifact.KindAssignment, artifact.VersionAssignment).Str("bench", k.name).Sum()
	case artifact.KindNetwork:
		return c.key(artifact.KindNetwork, artifact.VersionNetwork).Str("design", k.name).Sum()
	case artifact.KindPerf:
		return artifact.NewKey(artifact.KindPerf, artifact.VersionPerf).
			Int("n", c.Opt.N).
			Int64("seed", c.Opt.Seed).
			Int("accesses", c.Opt.SimAccesses).
			Str("bench", k.name).
			Sum()
	}
	panic("exp: no artifact key for memo kind " + k.kind)
}

// memoized returns key's in-process value while ctx is live. Every
// accessor calls it before building its solve closure: the closure
// escapes to the flight goroutine, so checking first keeps a hit to a
// map lookup under the lock, with no allocation and no goroutine.
func memoized[T any](ctx context.Context, c *Context, key memoKey) (T, bool) {
	c.mu.Lock()
	v, ok := c.memo[key]
	c.mu.Unlock()
	if !ok || ctx.Err() != nil {
		var zero T
		return zero, false
	}
	return v.(T), true
}

// memoValue is the miss path behind memoized. It runs fn through the
// flight group, so concurrent requesters share one computation, and
// memoises the result on success.
//
// Cancellation semantics: a ctx that is already done fails fast. ctx
// bounds this caller's wait only: fn runs under the flight's context,
// which is cancelled when the last waiter leaves, so a cancelled leader
// never fails its followers. Build closures thread that flight context
// into every nested accessor, so an abandoned solve stops at the next
// stage boundary rather than running the full pipeline.
func (c *Context) memoValue(ctx context.Context, key memoKey, fn func(context.Context) (any, error)) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.flights.Do(ctx, key.kind+"\x00"+key.name, func(fctx context.Context) (any, error) {
		// A flight that finished between the caller's lookup and Do has
		// already memoised the value; reuse it rather than rebuild.
		if v, ok := memoized[any](fctx, c, key); ok {
			return v, nil
		}
		v, err := fn(fctx)
		if err == nil {
			c.mu.Lock()
			c.memo[key] = v
			c.mu.Unlock()
		}
		return v, err
	})
}

// storedValue is memoValue over the artifact store: a memo miss loads
// and decodes the artefact under its artifactKey (timing the decode
// into artifact.decode_ms), or builds it under the flight's context and
// writes it back.
func storedValue[T any](ctx context.Context, c *Context, key memoKey,
	decode func([]byte) (T, error),
	build func(context.Context) (T, []byte, error),
) (T, error) {
	v, err := c.memoValue(ctx, key, func(ctx context.Context) (any, error) {
		return artifact.GetOrBuild(c.store, c.artifactKey(key),
			func(blob []byte) (T, error) {
				//mnoclint:allow determinism wall clock only feeds the artifact.decode_ms telemetry histogram, never table output
				begin := time.Now()
				v, err := decode(blob)
				c.reg.Histogram("artifact.decode_ms", artifact.GetMSBuckets...).
					Observe(float64(time.Since(begin)) / float64(time.Millisecond))
				return v, err
			},
			func() (T, []byte, error) { return build(ctx) })
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// Benchmarks returns the benchmark set in Table 4 order.
func (c *Context) Benchmarks() []workload.Benchmark { return c.benches }

// Base is the single-mode baseline network.
func (c *Context) Base() *power.MNoC { return c.base }

// Shape returns the benchmark's calibrated thread-indexed traffic.
func (c *Context) Shape(ctx context.Context, name string) (*trace.Matrix, error) {
	key := memoKey{artifact.KindMatrix, name}
	if m, ok := memoized[*trace.Matrix](ctx, c, key); ok {
		return m, nil
	}
	return storedValue(ctx, c, key, artifact.DecodeMatrix,
		func(context.Context) (*trace.Matrix, []byte, error) {
			c.solveShapes.Add(1)
			c.noteSolve("shapes")
			defer c.tracer.StartSpan("exp", "solve.shape").Attr("bench", name).End()
			b, err := workload.ByName(name)
			if err != nil {
				return nil, nil, err
			}
			shape, err := b.Matrix(c.Opt.N, c.Opt.Seed)
			if err != nil {
				return nil, nil, err
			}
			m, _, err := power.ScaleToTarget(c.base, shape, c.Opt.Cycles, b.PaperBaseWatts)
			if err != nil {
				return nil, nil, err
			}
			return m, artifact.EncodeMatrix(m), nil
		})
}

// QAPMapping returns the benchmark's taboo-search thread mapping
// (solved once, then served from the artifact store).
func (c *Context) QAPMapping(ctx context.Context, name string) (mapping.Assignment, error) {
	key := memoKey{artifact.KindAssignment, name}
	if a, ok := memoized[mapping.Assignment](ctx, c, key); ok {
		return a, nil
	}
	return storedValue(ctx, c, key, artifact.DecodeAssignment,
		func(ctx context.Context) (mapping.Assignment, []byte, error) {
			m, err := c.Shape(ctx, name)
			if err != nil {
				return nil, nil, err
			}
			prob, err := mapping.FromTraffic(m, c.Cfg.Splitter.Layout)
			if err != nil {
				return nil, nil, err
			}
			c.solveQAP.Add(1)
			c.noteSolve("qap")
			defer c.tracer.StartSpan("exp", "solve.qap").Attr("bench", name).End()
			a := prob.Taboo(prob.CenterGreedy(), mapping.TabooOptions{
				Seed: c.Opt.Seed, Iterations: c.Opt.QAPIters,
			})
			return a, artifact.EncodeAssignment(a), nil
		})
}

// Mapped returns the benchmark's calibrated traffic permuted by its QAP
// mapping (core-indexed). The permutation is cheap, so it is memoised
// in-process only — the shape and mapping it derives from are the
// cached artefacts.
func (c *Context) Mapped(ctx context.Context, name string) (*trace.Matrix, error) {
	key := memoKey{kindMapped, name}
	if m, ok := memoized[*trace.Matrix](ctx, c, key); ok {
		return m, nil
	}
	v, err := c.memoValue(ctx, key, func(ctx context.Context) (any, error) {
		shape, err := c.Shape(ctx, name)
		if err != nil {
			return nil, err
		}
		asg, err := c.QAPMapping(ctx, name)
		if err != nil {
			return nil, err
		}
		m, err := shape.Permute(asg)
		if err != nil {
			return nil, fmt.Errorf("exp: permuting %s by its QAP mapping: %w", name, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Matrix), nil
}

// SampledMatrix averages the normalised, QAP-mapped traffic of the given
// benchmarks — the paper's S4/S12 profiling inputs (Section 5.4). Like
// Mapped it is memoised in-process, so every design weighted by the
// same sample shares one matrix.
func (c *Context) SampledMatrix(ctx context.Context, names []string) (*trace.Matrix, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("exp: empty sample set")
	}
	key := memoKey{kindSampled, strings.Join(names, ",")}
	if m, ok := memoized[*trace.Matrix](ctx, c, key); ok {
		return m, nil
	}
	v, err := c.memoValue(ctx, key, func(ctx context.Context) (any, error) {
		out := trace.NewMatrix(c.Opt.N)
		for _, name := range names {
			m, err := c.Mapped(ctx, name)
			if err != nil {
				return nil, err
			}
			if err := out.AddScaled(m.Normalized(), 1/float64(len(names))); err != nil {
				return nil, fmt.Errorf("exp: accumulating sampled matrix for %s: %w", name, err)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Matrix), nil
}

// network caches splitter-designed networks. The string key names a
// deterministic design point (e.g. "4M_G_S12"); combined with the
// options and configuration fingerprint folded in by c.key it content-
// addresses the solved design, so warm runs skip the splitter solves.
// build receives the flight's context and must use it, not a caller's.
func (c *Context) network(ctx context.Context, key string, build func(context.Context) (*power.MNoC, error)) (*power.MNoC, error) {
	mkey := memoKey{artifact.KindNetwork, key}
	if n, ok := memoized[*power.MNoC](ctx, c, mkey); ok {
		return n, nil
	}
	return storedValue(ctx, c, mkey,
		func(blob []byte) (*power.MNoC, error) {
			n, err := artifact.DecodeNetwork(c.Cfg, blob)
			if err != nil {
				return nil, err
			}
			n.Instrument(c.reg)
			return n, nil
		},
		func(ctx context.Context) (*power.MNoC, []byte, error) {
			c.solveNetworks.Add(1)
			c.noteSolve("networks")
			defer c.tracer.StartSpan("exp", "solve.network").Attr("design", key).End()
			n, err := build(ctx)
			if err != nil {
				return nil, nil, err
			}
			blob, err := artifact.EncodeNetwork(n)
			if err != nil {
				return nil, nil, err
			}
			n.Instrument(c.reg)
			return n, blob, nil
		})
}

// Precompute builds every benchmark's calibrated traffic and QAP
// mapping with up to `workers` goroutines. The searches are independent
// and deterministic, so parallelism changes wall-clock time only — a
// full paper-scale context drops from minutes to tens of seconds on a
// multicore host.
func (c *Context) Precompute(ctx context.Context, workers int) error {
	return c.precomputeNames(ctx, workload.Names(), workers)
}

// precomputeNames is Precompute over an explicit benchmark list. Every
// worker error is reported (joined in benchmark order), not just the
// first: a multi-benchmark failure surfaces completely. A cancelled ctx
// stops scheduling further benchmarks; the joined error then includes
// the ctx error exactly once.
func (c *Context) precomputeNames(ctx context.Context, names []string, workers int) error {
	errs := make([]error, len(names))
	fanout.Run(ctx, len(names), workers, func(_, i int) {
		if _, err := c.Mapped(ctx, names[i]); err != nil &&
			!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			errs[i] = fmt.Errorf("%s: %w", names[i], err)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return ctx.Err()
}

// evaluateWatts runs a network on a (core-indexed) matrix.
func (c *Context) evaluateWatts(net *power.MNoC, m *trace.Matrix) (float64, error) {
	b, err := net.Evaluate(m, c.Opt.Cycles)
	if err != nil {
		return 0, err
	}
	return b.TotalWatts(), nil
}

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
