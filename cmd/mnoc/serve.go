package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"mnoc/internal/adapt"
	"mnoc/internal/fleet"
	"mnoc/internal/server"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
)

// version is stamped via -ldflags "-X main.version=..." in release
// builds; dev builds report it empty.
var version string

// serveCmd runs the HTTP/JSON evaluation service (docs/SERVER.md): the
// same engine as `mnoc bench`, behind bounded admission, per-request
// deadlines, and request coalescing. SIGINT drains in-flight requests
// before exiting.
func serveCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("serve", stderr)
	addr := fs.String("addr", ":8080", "listen address (use :0 for a random port)")
	fs.String("scale", "paper", "paper (radix-256) or quick (radix-64)")
	seed := fs.Int64("seed", 1, "random seed for workloads and heuristics")
	workers := fs.Int("workers", 0, "computation worker pool size (0 = runner default)")
	queue := fs.Int("queue", 0, "admission queue depth, waiting+running (0 = 4x workers)")
	fs.String("cache-dir", "", "persistent artifact cache directory (warm restarts skip every solve)")
	configPath := fs.String("config", "", "JSON runner config file; explicitly-set flags override it")
	defaultTO := fs.Int64("default-timeout-ms", 60_000, "deadline for requests that send no timeout_ms")
	maxTO := fs.Int64("max-timeout-ms", 300_000, "ceiling on client-requested deadlines")
	drainMS := fs.Int64("drain-ms", 10_000, "how long shutdown waits for in-flight requests")
	failFast := fs.Bool("fail-fast", true, "cancel a /v1/bench run on its first entry error")
	artServe := fs.Bool("artifact-serve", false, "expose the artifact store on GET/HEAD/PUT /artifacts/<key> so fleet replicas can share it (docs/FLEET.md)")
	artStore := fs.String("artifact-store", "", "remote artifact store base URL (a replica running -artifact-serve); wins over -cache-dir")

	adaptOn := fs.Bool("adapt", false, "run the online adaptation loop (docs/ADAPT.md); exposes /v1/adapt")
	var as adaptSetup
	fs.StringVar(&as.tracePath, "adapt-trace", "", "traffic trace the adaptation loop replays (mnoc-adapt-trace v1; required with -adapt)")
	fs.Uint64Var(&as.window, "adapt-window", 25_000, "adaptation observation window in cycles")
	fs.Float64Var(&as.speed, "adapt-speed", 0, "adaptation replay pacing in cycles per second (0 = as fast as possible)")
	fs.Float64Var(&as.guardDB, "adapt-guard-db", 0.5, "guard band in dB for the adaptation margin and loss checks")
	fs.StringVar(&as.faultsPath, "adapt-faults", "", "optional fault schedule replayed alongside the adaptation traffic")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	cfg, err := runnerConfig(fs, *configPath)
	if err != nil {
		return err
	}
	cfg.FailFast = *failFast
	var remoteStore *fleet.Remote
	if *artStore != "" {
		remoteStore = fleet.NewRemote(*artStore)
		warnIfUnreachable(stderr, "serve", remoteStore)
		cfg.Store = remoteStore
	}

	var ctrl *adapt.Controller
	var adaptTr *trace.Trace
	if *adaptOn {
		if as.tracePath == "" {
			return fmt.Errorf("-adapt needs -adapt-trace (record one with 'mnoc replay -gen')")
		}
		as.seed = *seed
		// The registry is rebound to the server's before feeding.
		if ctrl, adaptTr, err = as.controller(telemetry.NewRegistry()); err != nil {
			return err
		}
	}

	s, err := server.New(server.Config{
		Runner:         cfg,
		QueueDepth:     *queue,
		Workers:        *workers,
		DefaultTimeout: time.Duration(*defaultTO) * time.Millisecond,
		MaxTimeout:     time.Duration(*maxTO) * time.Millisecond,
		Version:        version,
		Adapt:          ctrl,
		ArtifactServe:  *artServe,
	})
	if err != nil {
		return err
	}
	if remoteStore != nil {
		// The remote store publishes into the server's registry so the
		// fleet.store.* family shows up on /metrics next to artifact.*.
		remoteStore.Instrument(s.Runner().Telemetry())
	}
	if ctrl != nil {
		// The adaptation loop publishes into the server's registry so
		// the adapt.* family shows up on /metrics, and replays the trace
		// in the background while the server runs.
		ctrl.Instrument(s.Runner().Telemetry())
		go func() {
			if err := as.replay(ctrl, adaptTr); err != nil {
				fmt.Fprintln(stderr, "mnoc serve: adaptation replay:", err)
				return
			}
			st := ctrl.Status()
			fmt.Fprintf(stderr, "mnoc serve: adaptation replay done | gen %d | windows %d triggers %d resolves %d swaps %d rollbacks %d\n",
				st.Generation, st.Counts.Windows, st.Counts.Triggers, st.Counts.Resolves, st.Counts.Swaps, st.Counts.Rollbacks)
		}()
	}

	ready := func(bound string) {
		fmt.Fprintf(stdout, "mnoc serve: listening on http://%s (scale=%s radix=%d seed=%d workers=%d)\n",
			bound, scaleName(cfg), s.Runner().Options().N, s.Runner().Options().Seed, s.Runner().Workers())
	}
	err = s.Serve(ctx, *addr, time.Duration(*drainMS)*time.Millisecond, ready)
	fmt.Fprintln(stderr, "mnoc serve:", s.Runner().Summary())
	return err
}
