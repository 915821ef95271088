package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"mnoc/internal/fleet"
)

// proxyCmd runs the fleet front (docs/FLEET.md): it consistent-hashes
// each request's flight key across the backend replicas, so identical
// requests land on — and coalesce at — one replica fleet-wide, with
// health-checked eviction and bounded failover on connection errors.
func proxyCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("proxy", stderr)
	var (
		addr      = fs.String("addr", ":8090", "listen address (use :0 for a random port)")
		backends  = fs.String("backends", "", "comma-separated backend base URLs (required), e.g. http://h1:8080,http://h2:8080")
		replicas  = fs.Int("replicas", fleet.DefaultReplicas, "virtual nodes per backend on the hash ring")
		healthMS  = fs.Int64("health-interval-ms", 1000, "period of the /healthz probe per backend")
		failovers = fs.Int("failovers", 2, "max additional backends tried after a connection error")
		drainMS   = fs.Int64("drain-ms", 10_000, "how long shutdown waits for in-flight requests")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *backends == "" {
		return fmt.Errorf("-backends is required (comma-separated base URLs)")
	}
	list := splitList(*backends)
	p, err := fleet.NewProxy(fleet.ProxyConfig{
		Backends:       list,
		Replicas:       *replicas,
		HealthInterval: time.Duration(*healthMS) * time.Millisecond,
		MaxFailovers:   *failovers,
		Version:        version,
	})
	if err != nil {
		return err
	}

	ready := func(bound string) {
		fmt.Fprintf(stdout, "mnoc proxy: listening on http://%s (ring=%d replicas=%d failovers=%d)\n",
			bound, p.Ring().Size(), *replicas, *failovers)
		for _, b := range list {
			fmt.Fprintf(stdout, "mnoc proxy:   backend %s\n", b)
		}
	}
	return p.Serve(ctx, *addr, time.Duration(*drainMS)*time.Millisecond, ready)
}

// splitList parses a comma-separated flag value, trimming whitespace
// and dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}
