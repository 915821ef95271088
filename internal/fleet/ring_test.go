package fleet

import (
	"fmt"
	"testing"
)

// sampleKeys builds 10k synthetic flight keys shaped like the real
// ones ("solve|bench|kind|qap").
func sampleKeys(n int) []string {
	kinds := []string{"comm4", "comm2", "dist4", "base"}
	benches := []string{"fft", "barnes", "water_s", "lu", "radix", "ocean"}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("solve|%s-%d|%s|%t",
			benches[i%len(benches)], i, kinds[i%len(kinds)], i%2 == 0)
	}
	return keys
}

func ringOf(t *testing.T, backends ...string) *Ring {
	t.Helper()
	r, err := NewRing(backends, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// owner is the backend the proxy routes key to first.
func owner(r *Ring, key string) string { return r.Seq(key, 1)[0] }

// TestRingStabilityOnGrowth pins the consistent-hashing contract: when
// one backend joins an N-node ring, only the keys that the new node
// now owns move — roughly K/(N+1) of K keys, and never more than
// twice that. A modulo-hash scheme would remap ~N/(N+1) of them.
func TestRingStabilityOnGrowth(t *testing.T) {
	const samples = 10_000
	keys := sampleKeys(samples)
	backends := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := ringOf(t, backends...)

	before := make([]string, samples)
	for i, k := range keys {
		before[i] = owner(r, k)
	}

	grown := ringOf(t, append(backends, "http://e:1")...)
	moved := 0
	for i, k := range keys {
		after := owner(grown, k)
		if after != before[i] {
			moved++
			// Every moved key must have moved TO the new node; keys
			// never reshuffle among surviving backends.
			if after != "http://e:1" {
				t.Fatalf("key %q moved %s -> %s, not to the new backend", k, before[i], after)
			}
		}
	}
	ideal := samples / (len(backends) + 1)
	if moved == 0 {
		t.Fatal("no keys moved to the new backend; ring is ignoring it")
	}
	if moved > 2*ideal {
		t.Fatalf("growth remapped %d/%d keys; want at most ~2x the ideal %d", moved, samples, ideal)
	}
	t.Logf("growth moved %d/%d keys (ideal %d)", moved, samples, ideal)
}

// TestRingRemovalRestoresAssignment pins the other direction: the ring
// rebuilt without the backend that just joined restores the prior
// assignment exactly, for every sampled key. This falls out of the
// ring being a pure function of the backend set.
func TestRingRemovalRestoresAssignment(t *testing.T) {
	keys := sampleKeys(10_000)
	r := ringOf(t, "http://a:1", "http://b:1", "http://c:1")
	grown := ringOf(t, "http://a:1", "http://b:1", "http://c:1", "http://d:1")

	var kept []string
	for _, b := range grown.Backends() {
		if b != "http://d:1" {
			kept = append(kept, b)
		}
	}
	shrunk := ringOf(t, kept...)
	joined := 0
	for _, k := range keys {
		if owner(grown, k) == "http://d:1" {
			joined++
		}
		if got, want := owner(shrunk, k), owner(r, k); got != want {
			t.Fatalf("key %q: owner %s after add+remove, want %s", k, got, want)
		}
	}
	if joined == 0 {
		t.Fatal("the joined backend owned no sampled key; the round trip exercised nothing")
	}
}

// TestRingBalance checks vnode smoothing: per-backend load across the
// sampled keys stays within a reasonable band of the mean.
func TestRingBalance(t *testing.T) {
	keys := sampleKeys(10_000)
	backends := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := ringOf(t, backends...)
	load := make(map[string]int)
	for _, k := range keys {
		load[owner(r, k)]++
	}
	mean := len(keys) / len(backends)
	for _, b := range backends {
		if load[b] < mean/2 || load[b] > 2*mean {
			t.Fatalf("backend %s owns %d keys; want within [%d, %d]", b, load[b], mean/2, 2*mean)
		}
	}
}

// TestRingSeq pins the failover order contract: Seq starts at the
// backend of the first vnode clockwise from the key's hash, lists
// distinct backends, and covers the whole ring.
func TestRingSeq(t *testing.T) {
	r := ringOf(t, "http://a:1", "http://b:1", "http://c:1")
	for _, k := range sampleKeys(100) {
		seq := r.Seq(k, 5)
		if len(seq) != 3 {
			t.Fatalf("seq length %d, want 3 (ring size)", len(seq))
		}
		if want := r.backends[r.owner[r.slot(k)]]; seq[0] != want {
			t.Fatalf("seq[0]=%s, want owner %s", seq[0], want)
		}
		seen := map[string]bool{}
		for _, b := range seq {
			if seen[b] {
				t.Fatalf("seq repeats backend %s", b)
			}
			seen[b] = true
		}
	}
}

// TestRingDeterministicConstruction pins that backend order and
// duplicates don't change routing.
func TestRingDeterministicConstruction(t *testing.T) {
	a := ringOf(t, "http://a:1", "http://b:1", "http://c:1")
	b := ringOf(t, "http://c:1", "http://a:1", "http://b:1", "http://a:1")
	for _, k := range sampleKeys(1000) {
		if owner(a, k) != owner(b, k) {
			t.Fatalf("owner differs for %q across construction orders", k)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring must error")
	}
	if _, err := NewRing([]string{""}, 0); err == nil {
		t.Fatal("empty backend address must error")
	}
}
