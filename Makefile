# Tier-1 verification for the mnoc repository (see ROADMAP.md).
# Pure-Go, stdlib-only: no tool downloads, works offline.

GO ?= go

.PHONY: check fmt-check vet lint lint-json build test race fuzz golden golden-check \
	golden-everything golden-everything-check paper-check \
	compare-golden compare-check fault-golden fault-check adapt-golden adapt-check \
	metrics-golden metrics-check \
	sweep-check bench bench-check bench-baseline

# The tier-1 gate: everything below must pass before merging.
check: fmt-check vet lint build test race

# Fail on any Go file gofmt would rewrite. The analysis fixtures under
# internal/analysis/testdata/ are exempt: engine_test.go pins findings
# by line (beta.go:22), and gofmt would move those lines.
fmt-check:
	@out=$$(gofmt -l . | grep -v -e '^internal/analysis/testdata/' -e '^\.bench_build/'); \
	if [ -n "$$out" ]; then echo "gofmt -l: these files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The domain lint suite (cmd/mnoclint, docs/LINT.md): determinism,
# unit-safety, context threading, error wrapping and goroutine
# cancellation. Pure stdlib, so it runs offline like everything else
# here. sync.Pool and atomic.Pointer discipline is checked by the -race
# tests `make race` runs.
lint:
	$(GO) run ./cmd/mnoclint ./...

# Machine-readable lint run: every finding plus every in-force allow
# directive with its reason, as a JSON array (CI archives it).
lint-json:
	$(GO) run ./cmd/mnoclint -json ./... > mnoclint.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the whole tree: cheap enough now that the
# heavy solves are cached, and it catches races in packages that only
# become concurrent indirectly (e.g. exp entries on the runner pool).
race:
	$(GO) test -race ./...

# Regenerate the golden quick-scale benchmark tables. Run after an
# intentional change to experiment output and commit the diff.
golden:
	$(GO) run ./cmd/mnoc bench -scale quick > testdata/golden/bench_quick.txt

# Diff the current quick-scale tables against the checked-in fixture:
# a deterministic end-to-end check that the single mnoc binary still
# reproduces the paper's tables byte-for-byte.
golden-check:
	$(GO) run ./cmd/mnoc bench -scale quick > /tmp/bench_quick.txt
	diff -u testdata/golden/bench_quick.txt /tmp/bench_quick.txt

# Regenerate the golden for all quick-scale entries: the 12 paper
# tables plus the extension experiments (joint, dynamic, loadsweep, ...)
# that bench_quick.txt does not cover.
golden-everything:
	$(GO) run ./cmd/mnoc bench -scale quick -exp everything > testdata/golden/bench_quick_everything.txt

# Diff every quick-scale entry against its fixture.
golden-everything-check:
	$(GO) run ./cmd/mnoc bench -scale quick -exp everything > /tmp/bench_quick_everything.txt
	diff -u testdata/golden/bench_quick_everything.txt /tmp/bench_quick_everything.txt

# Rebuild the paper-scale results (radix 256, every entry; about a
# minute on two cores) and diff them byte for byte against the
# committed paper_results.txt, ignoring only that file's header line
# and its trailing EXIT=0 line.
paper-check:
	$(GO) run ./cmd/mnoc bench -scale paper -exp everything -workers 2 > /tmp/paper_results.txt
	sed -e '1d' -e '$${/^EXIT=0$$/d;}' paper_results.txt > /tmp/paper_results_want.txt
	sed -e '1d' /tmp/paper_results.txt | diff -u /tmp/paper_results_want.txt -

# Diff `mnoc sweep`'s stdout against the bench golden (minus its two
# header lines): pins the byte-identity contract — a sweep must
# reproduce the single-process `mnoc bench` tables exactly — without
# booting a fleet. The second diff pins the -fault-scales path: the
# fig3 table, then the curve `mnoc fault` prints for the same scales
# (minus its three header lines). The CI fleet-smoke job re-checks the
# tables against live backends.
sweep-check:
	$(GO) run ./cmd/mnoc sweep -scale quick -workers 4 > /tmp/sweep_quick.txt
	tail -n +3 testdata/golden/bench_quick.txt | diff -u - /tmp/sweep_quick.txt
	$(GO) run ./cmd/mnoc sweep -scale quick -exp fig3 -fault-scales 0,1 > /tmp/sweep_fault.txt
	{ $(GO) run ./cmd/mnoc bench -scale quick -exp fig3 | tail -n +3; \
	  $(GO) run ./cmd/mnoc fault -scales 0,1 | tail -n +4; } | diff -u - /tmp/sweep_fault.txt

# Regenerate the golden worst-vs-average loss comparison table.
compare-golden:
	$(GO) run ./cmd/mnoc compare -loss=worst -scale quick > testdata/golden/compare_worstcase.txt

# Diff the worst-vs-average table against the fixture: pins both loss
# accountings (and their ratio) per design kind.
compare-check:
	$(GO) run ./cmd/mnoc compare -loss=worst -scale quick > /tmp/compare_worstcase.txt
	diff -u testdata/golden/compare_worstcase.txt /tmp/compare_worstcase.txt

# Regenerate the golden fault curve: `mnoc fault` at its defaults.
fault-golden:
	$(GO) run ./cmd/mnoc fault > testdata/golden/fault_default.txt

# Diff the fault curve against the fixture: pins the fault schedule, the
# recovery ladder's counts and the delivered fractions and powers.
fault-check:
	$(GO) run ./cmd/mnoc fault > /tmp/fault_default.txt
	diff -u testdata/golden/fault_default.txt /tmp/fault_default.txt

# Regenerate the golden adaptation log under faults: the phase-shift
# trace replayed against the fault schedule `mnoc fault -save-schedule`
# writes at its defaults (the scale-4 point). Only stdout is kept; the
# summary line with its wall time goes to stderr.
adapt-golden:
	$(GO) run ./cmd/mnoc replay -trace testdata/adapt/phase_shift.trace \
		-faults testdata/adapt/fault_default.sched > testdata/golden/adapt_faults.txt

# Diff the adaptation log under faults against the fixture: pins the
# controller's loss estimate and its escalation-margin rejection, the
# two places the adaptation loop reads the fault checker.
adapt-check:
	$(GO) run ./cmd/mnoc replay -trace testdata/adapt/phase_shift.trace \
		-faults testdata/adapt/fault_default.sched > /tmp/adapt_faults.txt
	diff -u testdata/golden/adapt_faults.txt /tmp/adapt_faults.txt

# Regenerate the golden metric-name lists: the quick-scale bench set
# and the adaptation-loop set (a replay over the committed phase-shift
# trace registers the full adapt.* family eagerly). Run after
# intentionally adding, renaming or removing a metric and commit the
# diff (docs/TELEMETRY.md documents every name).
metrics-golden:
	$(GO) run ./cmd/mnoc bench -scale quick \
		-metrics-out /tmp/mnoc_metrics.json > /dev/null
	$(GO) run ./cmd/mnoc metricnames /tmp/mnoc_metrics.json \
		> testdata/golden/metrics_names.txt
	$(GO) run ./cmd/mnoc replay -trace testdata/adapt/phase_shift.trace \
		-metrics-out /tmp/mnoc_adapt_metrics.json > /dev/null
	$(GO) run ./cmd/mnoc metricnames /tmp/mnoc_adapt_metrics.json \
		> testdata/golden/metrics_names_adapt.txt

# Diff the metric names a quick-scale run (and an adaptation replay)
# registers against the checked-in lists: a rename or a
# silently-dropped instrument fails CI instead of breaking downstream
# dashboards.
metrics-check:
	$(GO) run ./cmd/mnoc bench -scale quick \
		-metrics-out /tmp/mnoc_metrics.json > /dev/null
	$(GO) run ./cmd/mnoc metricnames /tmp/mnoc_metrics.json \
		> /tmp/mnoc_metrics_names.txt
	diff -u testdata/golden/metrics_names.txt /tmp/mnoc_metrics_names.txt
	$(GO) run ./cmd/mnoc replay -trace testdata/adapt/phase_shift.trace \
		-metrics-out /tmp/mnoc_adapt_metrics.json > /dev/null
	$(GO) run ./cmd/mnoc metricnames /tmp/mnoc_adapt_metrics.json \
		> /tmp/mnoc_adapt_metrics_names.txt
	diff -u testdata/golden/metrics_names_adapt.txt /tmp/mnoc_adapt_metrics_names.txt

# Short seeded fuzz passes (twelve targets, 10 s each) over the
# text-format parsers (including the mnoc-adapt-trace v1 reader behind
# replay -trace and serve -adapt-trace, and the `go test -bench` reader
# behind `mnoc benchjson emit`), the trace readers (the binary reader
# behind `mnoc power -i` and `sim`, the CSV matrix reader behind
# `mnoc power -matrix`), the telemetry exporters, the
# serve-path request decoder (every body is either accepted or refused
# with a 400 JSON error envelope), and the MART artifact envelope and
# codecs (disk caches and PUT /artifacts/<key> bytes decode or error,
# never panic), plus a differential pass over power.EvaluateLoss (the
# pricing-plan walk equals the per-cell reference bit for bit on random
# small networks). CI runs this.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDBLinearRoundTrip -fuzztime=10s ./internal/phys
	$(GO) test -run=^$$ -fuzz=FuzzLossTransmissionRoundTrip -fuzztime=10s ./internal/phys
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/fault
	$(GO) test -run=^$$ -fuzz=FuzzParseTrace -fuzztime=10s ./internal/adapt
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=10s ./internal/drivetable
	$(GO) test -run=^$$ -fuzz=^FuzzRead$$ -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzReadCSV -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzExporters -fuzztime=10s ./internal/telemetry
	$(GO) test -run=^$$ -fuzz=FuzzDecodePost -fuzztime=10s ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzOpenEnvelope -fuzztime=10s ./internal/runner/artifact
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/benchjson
	$(GO) test -run=^$$ -fuzz=FuzzEvaluateLoss -fuzztime=10s ./internal/power

# ---- Performance baseline (docs/BENCH.md) ----------------------------

# The curated hot-path benchmark set tracked in BENCH_baseline.json:
# splitter solve/recurrence, the α search (3, 4 and 8 modes), QAP
# mapping (radix 64 and 256), the dynamic controller's migration scan,
# multicore-sim construction and run,
# power evaluation (radix 256, plus per design kind, radix and loss
# model), the typed-unit inner loops, trace replay (plain and
# with telemetry, radix 16 to 256), and the serve-path writeJSON
# encode and request decode.
BENCH_PATTERN = ^(BenchmarkSplitterDesign|BenchmarkOptimalAlphas|BenchmarkQAPTaboo|BenchmarkQAPTaboo256|BenchmarkDynamicMigrationScan|BenchmarkPowerEvaluate|BenchmarkPowerEvaluateKinds|BenchmarkNoCReplay|BenchmarkNoCReplayObserved|BenchmarkMulticoreSim|BenchmarkSplitterRecurrenceTyped|BenchmarkPowerEvalTyped|BenchmarkWriteJSON|BenchmarkRequestDecode)$$
BENCH_PKGS = . ./internal/dynamic ./internal/phys ./internal/server
BENCH_DATE ?= $(shell date -u +%Y-%m-%d)
BENCH_FILE ?= BENCH_$(BENCH_DATE).json
BENCH_SCALE ?= quick
BENCHTIME ?= 1s

# Measure the curated set and emit the machine-readable BENCH_<date>.json
# (schema: internal/benchjson, docs/BENCH.md). Each benchmark runs
# three times; emit folds the repeats into the median ns/op and the
# maximum allocs/op, so one noisy repeat cannot trip the ns/op gate.
bench:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem \
		-benchtime=$(BENCHTIME) -count=3 $(BENCH_PKGS) | tee /tmp/mnoc_bench_raw.txt
	$(GO) run ./cmd/mnoc benchjson emit -in /tmp/mnoc_bench_raw.txt \
		-out $(BENCH_FILE) -scale $(BENCH_SCALE) -date $(BENCH_DATE)

# Compare the freshly measured BENCH_<date>.json against the committed
# baseline: exits non-zero on >15% ns/op growth, any allocs/op growth,
# or a baseline benchmark that disappeared. Run `make bench` first (CI
# runs `make bench bench-check`).
bench-check:
	$(GO) run ./cmd/mnoc benchjson check \
		-baseline BENCH_baseline.json -current $(BENCH_FILE)

# Refresh the committed baseline after an intentional perf change and
# commit the diff (the review then shows exactly what got slower or
# faster, per benchmark).
bench-baseline: bench
	cp $(BENCH_FILE) BENCH_baseline.json
