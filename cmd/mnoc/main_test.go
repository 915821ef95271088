package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mnoc/internal/core"
	"mnoc/internal/drivetable"
	"mnoc/internal/exp"
)

// mnoc runs one command line in process and returns its exit status and
// output streams.
func mnoc(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun runs a command line that has to succeed and returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := mnoc(t, args...)
	if code != 0 {
		t.Fatalf("mnoc %s: exit %d\nstderr:\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

func TestExitCodes(t *testing.T) {
	kinds := strings.Join(exp.DesignKinds(), ", ")
	twoNodes := filepath.Join(t.TempDir(), "two.csv")
	if err := os.WriteFile(twoNodes, []byte("0,1\n1,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		args       []string
		code       int
		wantStdout string // substring; empty = don't care
		wantStderr string
	}{
		{"no subcommand", nil, 2, "", "usage: mnoc <subcommand>"},
		{"help", []string{"help"}, 0, "usage: mnoc <subcommand>", ""},
		{"-h", []string{"-h"}, 0, "usage: mnoc <subcommand>", ""},
		{"subcommand -h", []string{"bench", "-h"}, 0, "", "Usage of mnoc bench"},
		{"bad flag", []string{"bench", "-nosuchflag"}, 2, "", "flag provided but not defined: -nosuchflag"},
		{"bad flag value", []string{"topo", "-n", "many"}, 2, "", "invalid value"},
		{"unknown subcommand", []string{"nosuch"}, 2, "", `mnoc: unknown subcommand "nosuch"`},
		{"trace without verb", []string{"trace"}, 2, "", "usage: mnoc trace gen|info"},
		{"trace unknown verb", []string{"trace", "nosuch"}, 2, "", "usage: mnoc trace gen|info"},
		{"trace info without -i", []string{"trace", "info"}, 1, "", "mnoc trace: info: -i is required"},
		{"unknown -exp id", []string{"bench", "-exp", "nosuch"}, 1, "", `mnoc bench: unknown experiment "nosuch"`},
		{"unknown sweep -exp id", []string{"sweep", "-exp", "nosuch"}, 1, "", `mnoc sweep: unknown experiment "nosuch"`},
		{"remote sweep -scale", []string{"sweep", "-addr", "http://127.0.0.1:1", "-scale", "quick"}, 1, "", "mnoc sweep: -scale needs local execution; drop -addr"},
		{"remote sweep -seed", []string{"sweep", "-addr", "http://127.0.0.1:1", "-seed", "2"}, 1, "", "mnoc sweep: -seed needs local execution; drop -addr"},
		{"remote sweep -config", []string{"sweep", "-addr", "http://127.0.0.1:1", "-config", "none.json"}, 1, "", "mnoc sweep: -config needs local execution; drop -addr"},
		{"remote sweep -cache-dir", []string{"sweep", "-addr", "http://127.0.0.1:1", "-cache-dir", "cache"}, 1, "", "mnoc sweep: -cache-dir needs local execution; drop -addr"},
		{"remote sweep -fault-scales", []string{"sweep", "-addr", "http://127.0.0.1:1", "-fault-scales", "0,1"}, 1, "", "mnoc sweep: -fault-scales needs local execution; drop -addr"},
		{"unknown design kind", []string{"topo", "-n", "16", "-kind", "nosuch"}, 1, "", `mnoc topo: unknown kind "nosuch" (want one of ` + kinds + ")"},
		{"unknown power kind", []string{"power", "-matrix", twoNodes, "-kind", "nosuch"}, 1, "", `mnoc power: unknown kind "nosuch" (want one of ` + kinds + ")"},
		{"2-node comm2 topo", []string{"topo", "-n", "2", "-kind", "comm2"}, 1, "", "needs at least 3 nodes, got 2"},
		{"2-node comm2 power", []string{"power", "-matrix", twoNodes, "-kind", "comm2"}, 1, "", "needs at least 3 nodes, got 2"},
		{"4-node dist4 topo", []string{"topo", "-n", "4", "-kind", "dist4"}, 1, "", "a 4-mode distance-based design needs at least 5 nodes, got 4"},
		{"3-node comm4 topo", []string{"topo", "-n", "3", "-kind", "comm4"}, 1, "", "a 4-mode communication-aware design needs at least 5 nodes, got 3"},
		{"4-node cluster2 topo", []string{"topo", "-n", "4", "-kind", "cluster2"}, 1, "", "4 nodes fit in one cluster of 4"},
		{"unknown network", []string{"sim", "-net", "nosuch"}, 1, "", `mnoc sim: unknown network "nosuch"`},
		{"benchjson without verb", []string{"benchjson"}, 2, "", "mnoc benchjson emit"},
		{"benchjson check without -current", []string{"benchjson", "check"}, 2, "", "mnoc benchjson check"},
		{"metricnames without file", []string{"metricnames"}, 2, "", "usage: mnoc metricnames"},
		{"metricnames missing file", []string{"metricnames", filepath.Join(t.TempDir(), "none.json")}, 1, "", "mnoc metricnames: open"},
		{"replay without -trace", []string{"replay"}, 1, "", "mnoc replay: need -trace (or -gen)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := mnoc(t, c.args...)
			if code != c.code {
				t.Errorf("exit %d, want %d\nstderr:\n%s", code, c.code, errOut)
			}
			if !strings.Contains(out, c.wantStdout) {
				t.Errorf("stdout missing %q:\n%s", c.wantStdout, out)
			}
			if !strings.Contains(errOut, c.wantStderr) {
				t.Errorf("stderr missing %q:\n%s", c.wantStderr, errOut)
			}
		})
	}
}

// An unknown id names both registries' ids and is reported before any
// runner work starts.
func TestUnknownExperimentListsIDs(t *testing.T) {
	_, out, errOut := mnoc(t, "bench", "-scale", "quick", "-exp", "nosuch")
	for _, want := range []string{"fig3", "table4", "joint", "loadsweep"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("error does not list id %q:\n%s", want, errOut)
		}
	}
	if out != "" || strings.Contains(errOut, "cache [") {
		t.Errorf("runner ran before the id was resolved:\nstdout:\n%s\nstderr:\n%s", out, errOut)
	}
}

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// docs/RUNNER.md: explicit flag > config file > default.
func TestConfigPrecedence(t *testing.T) {
	path := writeConfig(t, `{"scale":"quick","workers":8}`)
	out := mustRun(t, "bench", "-config", path, "-workers", "2", "-exp", "fig3")
	if want := "mnoc bench: scale=quick radix=64 seed=1 experiments=1 workers=2\n"; !strings.HasPrefix(out, want) {
		t.Errorf("header = %q, want prefix %q", strings.SplitN(out, "\n", 2)[0], want)
	}
}

func TestRunnerConfigMerge(t *testing.T) {
	path := writeConfig(t, `{"scale":"quick","seed":5,"workers":8,"cache_dir":"/from/file"}`)
	cases := []struct {
		args  []string
		scale string
		seed  int64
		work  int
		cache string
	}{
		{nil, "quick", 5, 8, "/from/file"},
		{[]string{"-workers", "2"}, "quick", 5, 2, "/from/file"},
		{[]string{"-scale", "paper", "-seed", "9", "-cache-dir", "d"}, "paper", 9, 8, "d"},
		// A flag given its default explicitly still wins over the file.
		{[]string{"-workers", "0"}, "quick", 5, 0, "/from/file"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.String("scale", "paper", "")
		fs.Int64("seed", 1, "")
		fs.Int("workers", 0, "")
		fs.String("cache-dir", "", "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		cfg, err := runnerConfig(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Scale != c.scale || cfg.Seed != c.seed || cfg.Workers != c.work || cfg.CacheDir != c.cache {
			t.Errorf("%v: got scale=%q seed=%d workers=%d cache=%q, want %q %d %d %q",
				c.args, cfg.Scale, cfg.Seed, cfg.Workers, cfg.CacheDir, c.scale, c.seed, c.work, c.cache)
		}
	}
	if _, err := runnerConfig(flag.NewFlagSet("test", flag.ContinueOnError), filepath.Join(t.TempDir(), "none.json")); err == nil {
		t.Error("missing config file accepted")
	}
}

func TestBenchJSONShape(t *testing.T) {
	out := mustRun(t, "bench", "-scale", "quick", "-exp", "fig3", "-json")
	var tables []map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &tables); err != nil {
		t.Fatalf("bench -json is not a JSON array of objects: %v\n%s", err, out)
	}
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	for _, key := range []string{"id", "title", "header", "rows"} {
		if _, ok := tables[0][key]; !ok {
			t.Errorf("table has no %q key: %s", key, out)
		}
	}
	for key := range tables[0] {
		if !slices.Contains([]string{"id", "title", "header", "rows", "notes"}, key) {
			t.Errorf("unexpected key %q", key)
		}
	}
	var typed []struct {
		ID     string
		Title  string
		Header []string
		Rows   [][]string
	}
	if err := json.Unmarshal([]byte(out), &typed); err != nil {
		t.Fatal(err)
	}
	tbl := typed[0]
	if tbl.ID != "fig3" || tbl.Title == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
		t.Errorf("table = %+v", tbl)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Errorf("row %d has %d cells for %d header columns", i, len(row), len(tbl.Header))
		}
	}
}

func TestCompareWorstGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden/compare_worstcase.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, "compare", "-loss=worst", "-scale", "quick"); got != string(want) {
		t.Errorf("compare -loss=worst differs from compare_worstcase.txt:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// replay -gen with seed 1 records the committed phase-shift trace, the
// input of adapt-check and the CI adaptation smoke job.
func TestReplayGenReproducesFixture(t *testing.T) {
	want, err := os.ReadFile("../../testdata/adapt/phase_shift.trace")
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, "replay", "-gen", "-seed", "1"); got != string(want) {
		t.Errorf("replay -gen -seed 1 differs from phase_shift.trace (%d bytes, want %d)", len(got), len(want))
	}
}

// Replaying the phase-shift trace against the default fault schedule
// prints the golden decision log (the in-process twin of adapt-check).
func TestReplayFaultsGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden/adapt_faults.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := mustRun(t, "replay", "-trace", "../../testdata/adapt/phase_shift.trace",
		"-faults", "../../testdata/adapt/fault_default.sched")
	if got != string(want) {
		t.Errorf("replay under faults differs from adapt_faults.txt:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The exported drive table carries the QAP thread map the design was
// built for, whatever the kind.
func TestTopoExportKeepsQAPMapping(t *testing.T) {
	const n, bench, seed = 16, "fft", 1
	sys, err := core.NewSystem(n)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := sys.Profile(bench, seed)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.Design(exp.DesignBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.WithQAPMapping(profile, core.QAPOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(want.Mapping, base.Mapping) {
		t.Fatal("QAP mapping is the identity; the test cannot tell the two apart")
	}
	for _, kind := range cliKinds() {
		t.Run(kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.drv")
			mustRun(t, "topo", "-n", "16", "-bench", bench, "-kind", kind, "-qap", "-render", "0", "-export", path)
			tbl, err := readFile(path, drivetable.Read)
			if err != nil {
				t.Fatal(err)
			}
			for thread, c := range tbl.ThreadToCore {
				if int(c) != want.Mapping[thread] {
					t.Fatalf("ThreadToCore = %v, want the QAP mapping %v", tbl.ThreadToCore, want.Mapping)
				}
			}
		})
	}
}

// cliKinds is every name -kind accepts: the design kinds, then the
// aliases, sorted.
func cliKinds() []string {
	var aliases []string
	for alias := range kindAliases {
		aliases = append(aliases, alias)
	}
	slices.Sort(aliases)
	return append(exp.DesignKinds(), aliases...)
}

// csvMatrix writes an n×n traffic matrix CSV and returns its path.
func csvMatrix(t *testing.T, n int) string {
	t.Helper()
	var b strings.Builder
	for i := range n {
		for j := range n {
			if j > 0 {
				b.WriteString(",")
			}
			if i == j {
				b.WriteString("0")
			} else {
				fmt.Fprintf(&b, "%d", (i*7+j*3)%11)
			}
		}
		b.WriteString("\n")
	}
	path := filepath.Join(t.TempDir(), "m.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// topo and power accept every kind, and an alias prints byte for byte
// what its design kind prints.
func TestKindAliases(t *testing.T) {
	commands := map[string][]string{
		"topo":  {"topo", "-n", "16", "-bench", "fft", "-render", "4"},
		"power": {"power", "-matrix", csvMatrix(t, 8), "-qap=false"},
	}
	for name, args := range commands {
		out := map[string]string{}
		for _, kind := range cliKinds() {
			out[kind] = mustRun(t, append(slices.Clone(args), "-kind", kind)...)
		}
		for alias, kind := range kindAliases {
			if out[alias] != out[kind] {
				t.Errorf("%s -kind %s:\n%s\ndiffers from -kind %s:\n%s", name, alias, out[alias], kind, out[kind])
			}
		}
	}
}

// The end-to-end tool runs formerly made by `go run ./cmd/mnoc` from the
// repository root, now in process.
func TestCLIToolsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tools are slow; skipped with -short")
	}
	tmp := t.TempDir()
	trc := filepath.Join(tmp, "fft.trc")

	t.Run("trace-gen-info", func(t *testing.T) {
		mustRun(t, "trace", "gen", "-bench", "fft", "-n", "32",
			"-cycles", "20000", "-flits", "5000", "-o", trc)
		out := mustRun(t, "trace", "info", "-i", trc, "-heatmap")
		for _, want := range []string{"nodes:", "packets:", "avg distance:"} {
			if !strings.Contains(out, want) {
				t.Errorf("info output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("power", func(t *testing.T) {
		out := mustRun(t, "power", "-i", trc, "-kind", "comm2")
		if !strings.Contains(out, "reduction vs base mNoC") {
			t.Errorf("power output incomplete:\n%s", out)
		}
	})
	t.Run("sim", func(t *testing.T) {
		out := mustRun(t, "sim", "-bench", "barnes", "-n", "16", "-accesses", "100")
		if !strings.Contains(out, "runtime:") || !strings.Contains(out, "directory:") {
			t.Errorf("sim output incomplete:\n%s", out)
		}
	})
	t.Run("topo", func(t *testing.T) {
		out := mustRun(t, "topo", "-n", "16", "-bench", "fft", "-kind", "dist2", "-render", "8")
		if !strings.Contains(out, "adjacency matrix") {
			t.Errorf("topo output incomplete:\n%s", out)
		}
	})
	t.Run("bench-quick-single", func(t *testing.T) {
		out := mustRun(t, "bench", "-scale", "quick", "-exp", "fig3")
		if !strings.Contains(out, "fig3") {
			t.Errorf("bench output incomplete:\n%s", out)
		}
	})
	t.Run("fault-sweep", func(t *testing.T) {
		out := mustRun(t, "fault", "-n", "16", "-cycles", "20000",
			"-flits", "1000", "-scales", "0,1")
		if !strings.Contains(out, "scale 1.00:") || !strings.Contains(out, "rec-frac") {
			t.Errorf("fault output incomplete:\n%s", out)
		}
	})
}

// One name set for -kind and one for -net: power gains cluster, sim
// gains mwsr.
func TestUnifiedKindAndNetSets(t *testing.T) {
	tmp := t.TempDir()
	trc := filepath.Join(tmp, "fft.trc")
	mustRun(t, "trace", "gen", "-bench", "fft", "-n", "16", "-cycles", "10000", "-flits", "1000", "-o", trc)
	if out := mustRun(t, "power", "-i", trc, "-kind", "cluster", "-qap=false"); !strings.Contains(out, "design:    2M_cluster4") {
		t.Errorf("power -kind cluster:\n%s", out)
	}
	if out := mustRun(t, "sim", "-bench", "barnes", "-n", "16", "-accesses", "100", "-net", "mwsr"); !strings.Contains(out, "network:        MWSR-16") {
		t.Errorf("sim -net mwsr:\n%s", out)
	}
}

// benchjson keeps its exit contract: 0 when the current file is within
// the thresholds, 1 on a regression.
func TestBenchjsonEmitCheck(t *testing.T) {
	tmp := t.TempDir()
	raw := func(nsPerOp string) string {
		path := filepath.Join(tmp, nsPerOp+".txt")
		body := "goos: linux\ngoarch: amd64\npkg: mnoc\n" +
			"BenchmarkX-2   \t 1000\t " + nsPerOp + " ns/op\t 16 B/op\t 1 allocs/op\nPASS\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := filepath.Join(tmp, "base.json")
	slow := filepath.Join(tmp, "slow.json")
	mustRun(t, "benchjson", "emit", "-in", raw("100.0"), "-out", base, "-date", "2026-01-01")
	mustRun(t, "benchjson", "emit", "-in", raw("200.0"), "-out", slow, "-date", "2026-01-02")
	if out := mustRun(t, "benchjson", "check", "-baseline", base, "-current", base); !strings.Contains(out, "1 benchmark(s) within thresholds") {
		t.Errorf("check report:\n%s", out)
	}
	if code, _, errOut := mnoc(t, "benchjson", "check", "-baseline", base, "-current", slow); code != 1 || !strings.Contains(errOut, "1 regression(s)") {
		t.Errorf("regression: exit %d, stderr:\n%s", code, errOut)
	}
}

// TestSweepFaultScalesMatchBenchAndFault pins local sweep's stdout: the
// bench tables without bench's 2-line header, then the fault curve
// without fault's 3-line header. Both commands read the config file's
// fault section; sweep's -fault-n/-fault-bench and its runner seed
// override it.
func TestSweepFaultScalesMatchBenchAndFault(t *testing.T) {
	const options = `"options":{"N":16,"Seed":1,"QAPIters":50,"Cycles":1000000,"SimAccesses":20}`
	for _, c := range []struct {
		name       string
		fault      string   // the config's fault section, if any
		sweepFlags []string // extra sweep flags
		faultFlags []string // the mnoc fault flags that match them
	}{
		{"defaults", "", nil, nil},
		{"config fault section", `,"fault":{"cycles":50000,"flits":2000}`, nil, nil},
		{"flags override config", `,"fault":{"cycles":50000,"flits":2000,"n":32,"bench":"fft","seed":7}`,
			[]string{"-fault-n", "8", "-fault-bench", "syn_uniform"},
			[]string{"-n", "8", "-bench", "syn_uniform", "-seed", "1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := writeConfig(t, "{"+options+c.fault+"}")
			sweep := mustRun(t, append([]string{"sweep", "-config", path, "-exp", "fig3", "-fault-scales", "0,1"}, c.sweepFlags...)...)
			bench := mustRun(t, "bench", "-config", path, "-exp", "fig3")
			fault := mustRun(t, append([]string{"fault", "-config", path, "-scales", "0,1"}, c.faultFlags...)...)
			want := dropLines(bench, 2) + dropLines(fault, 3)
			if sweep != want {
				t.Fatalf("sweep stdout differs from bench + fault:\n--- sweep ---\n%s\n--- want ---\n%s", sweep, want)
			}
		})
	}
}

// dropLines returns s without its first n lines.
func dropLines(s string, n int) string {
	for ; n > 0; n-- {
		_, s, _ = strings.Cut(s, "\n")
	}
	return s
}
