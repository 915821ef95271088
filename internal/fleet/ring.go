package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring over backend addresses.
// Each backend contributes Replicas virtual nodes ("vnodes"); a key is
// owned by the first vnode clockwise from its hash. The ring is a pure
// function of the backend *set*, which makes the stability properties
// trivial: the ring built after a backend leaves assigns every key
// exactly as the ring before it joined did — there is no incremental
// state to drift.
//
// The proxy routes flight keys through Seq. Its first backend is the
// key's owner, so identical requests coalesce at one replica; the rest
// is the failover order (distinct backends clockwise from the owner),
// so retries after a connection error stay deterministic too.
type Ring struct {
	backends []string // sorted, unique
	hashes   []uint64 // sorted vnode hashes
	owner    []int    // owner[i] = index into backends for hashes[i]
}

// DefaultReplicas is the vnode count per backend. 128 keeps the
// max/min load ratio across backends within a few percent for the
// fleet sizes mnoc targets (2–16 replicas).
const DefaultReplicas = 128

// vnodeHash hashes one virtual node label. SHA-256 rather than a fast
// non-crypto hash: ring construction is rare (startup, membership
// change), and the flight-key side (hashKey) must be
// collision-resistant across arbitrary request bodies anyway.
func vnodeHash(backend string, i int) uint64 {
	return hashKey(backend + "#" + strconv.Itoa(i))
}

// hashKey maps a flight key to a point on the ring (first 8 bytes of
// its SHA-256, big-endian).
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over the given backends. Duplicates are
// folded; order is irrelevant (the ring is a pure function of the
// backend set and replica count). replicas <= 0 gets DefaultReplicas.
func NewRing(backends []string, replicas int) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	set := make(map[string]struct{}, len(backends))
	uniq := make([]string, 0, len(backends))
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("fleet: empty backend address")
		}
		if _, dup := set[b]; dup {
			continue
		}
		set[b] = struct{}{}
		uniq = append(uniq, b)
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one backend")
	}
	sort.Strings(uniq)

	type vnode struct {
		hash  uint64
		owner int
	}
	vnodes := make([]vnode, 0, len(uniq)*replicas)
	for bi, b := range uniq {
		for i := 0; i < replicas; i++ {
			vnodes = append(vnodes, vnode{vnodeHash(b, i), bi})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].hash != vnodes[j].hash {
			return vnodes[i].hash < vnodes[j].hash
		}
		// Hash ties (vanishingly rare with 64-bit SHA prefixes) break
		// by backend index so the ring stays a pure function of the set.
		return vnodes[i].owner < vnodes[j].owner
	})
	r := &Ring{
		backends: uniq,
		hashes:   make([]uint64, len(vnodes)),
		owner:    make([]int, len(vnodes)),
	}
	for i, v := range vnodes {
		r.hashes[i] = v.hash
		r.owner[i] = v.owner
	}
	return r, nil
}

// Backends returns the ring's backend set (sorted; callers must not
// mutate).
func (r *Ring) Backends() []string { return r.backends }

// Size returns the number of backends on the ring.
func (r *Ring) Size() int { return len(r.backends) }

// slot finds the first vnode clockwise from the key's hash.
func (r *Ring) slot(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap past the top of the ring
	}
	return i
}

// Seq returns the distinct backends in ring order starting at the
// key's owner (the backend of the first vnode clockwise from its
// hash) — the failover sequence. Its length is min(n, Size).
func (r *Ring) Seq(key string, n int) []string {
	if n > len(r.backends) {
		n = len(r.backends)
	}
	out := make([]string, 0, n)
	seen := make(map[int]struct{}, n)
	for i := r.slot(key); len(out) < n; i = (i + 1) % len(r.hashes) {
		bi := r.owner[i]
		if _, dup := seen[bi]; dup {
			continue
		}
		seen[bi] = struct{}{}
		out = append(out, r.backends[bi])
	}
	return out
}
