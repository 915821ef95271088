package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"mnoc/internal/runner"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/server"
	"mnoc/internal/telemetry"
)

// newArtifactBackend boots a real mnoc server with the artifact-serve
// surface enabled.
func newArtifactBackend(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Runner:        runner.Config{Options: testOptions(), FailFast: true},
		ArtifactServe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRemoteStoreRoundTrip(t *testing.T) {
	ts := newArtifactBackend(t)
	r := NewRemote(ts.URL)
	reg := telemetry.NewRegistry()
	r.Instrument(reg)

	key := artifact.NewKey(artifact.KindSweep, artifact.VersionSweep).Str("test", "remote").Sum()
	blob := artifact.EncodeSweep([]byte("payload"))

	if _, ok, err := r.Get(key); err != nil || ok {
		t.Fatalf("get before put: ok=%v err=%v", ok, err)
	}
	if err := r.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := r.Get(key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("round trip mangled blob")
	}
	if st := r.Stats(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 put", st)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricStoreHit] != 1 || snap.Counters[MetricStoreMiss] != 1 || snap.Counters[MetricStorePut] != 1 {
		t.Fatalf("telemetry counters %v, want hit=miss=put=1", snap.Counters)
	}
	if err := r.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if loc := r.Location(); loc != "remote "+ts.URL {
		t.Fatalf("location %q", loc)
	}
}

// TestRemoteStoreCorruptResponse pins the integrity line: a remote
// handing back bytes that aren't a valid MART envelope counts as
// corrupt AND as a miss, and the bytes never reach the caller.
func TestRemoteStoreCorruptResponse(t *testing.T) {
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("these are not the artifact bytes you are looking for"))
	}))
	t.Cleanup(evil.Close)
	r := NewRemote(evil.URL)

	blob, ok, err := r.Get("deadbeefdeadbeef")
	if err != nil || ok || blob != nil {
		t.Fatalf("corrupt get: blob=%q ok=%v err=%v, want miss", blob, ok, err)
	}
	if st := r.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want corrupt=1 miss=1", st)
	}
}

// TestRemoteStoreUnreachableDegrades pins best-effort semantics: with
// the cache host gone, reads are misses and writes are dropped — never
// errors, so a computation survives losing its shared cache.
func TestRemoteStoreUnreachableDegrades(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // nothing is listening any more

	r := NewRemote(url)
	if _, ok, err := r.Get("deadbeefdeadbeef"); err != nil || ok {
		t.Fatalf("get against dead host: ok=%v err=%v, want plain miss", ok, err)
	}
	if err := r.Put("deadbeefdeadbeef", artifact.EncodeSweep(nil)); err != nil {
		t.Fatalf("put against dead host: %v, want nil (best-effort)", err)
	}
	if err := r.Ping(context.Background()); err == nil {
		t.Fatal("ping against dead host must error (startup warning path)")
	}
	if st := r.Stats(); st.Misses != 1 || st.Puts != 0 {
		t.Fatalf("stats %+v, want 1 miss, 0 puts", st)
	}
}

// TestRemoteStoreBackedRunner wires a Remote through runner.Config.
// Store: two runners sharing one artifact host, where the second gets
// cache hits on blobs the first solved. This is the fleet's
// cache-coherence story end to end.
func TestRemoteStoreBackedRunner(t *testing.T) {
	ts := newArtifactBackend(t)
	entries := sweepEntries(t, "table1")
	run := func() (*runner.Runner, []byte) {
		remote := NewRemote(ts.URL)
		r, err := runner.New(runner.Config{Options: testOptions(), FailFast: true, Store: remote})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := r.Run(context.Background(), &out, entries); err != nil {
			t.Fatal(err)
		}
		return r, out.Bytes()
	}
	cold, coldOut := run()
	warm, warmOut := run()
	if !bytes.Equal(coldOut, warmOut) {
		t.Fatal("cold and warm remote-backed runs differ")
	}
	coldStats := artifact.Unwrap(cold.Store()).Stats()
	warmStats := artifact.Unwrap(warm.Store()).Stats()
	if coldStats.Puts == 0 {
		t.Fatalf("cold run stored nothing remotely: %+v", coldStats)
	}
	if warmStats.Hits == 0 {
		t.Fatalf("warm run hit nothing remotely: %+v (cold %+v)", warmStats, coldStats)
	}
	// The runner summary should say where the artifacts live.
	if !bytes.Contains([]byte(warm.Summary()), []byte("remote "+ts.URL)) {
		t.Fatalf("summary %q does not name the remote store", warm.Summary())
	}
}
