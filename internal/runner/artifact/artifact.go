// Package artifact is the runner's content-addressed cache for the
// expensive intermediates of an evaluation run: calibrated traffic
// matrices, QAP thread mappings, solved power.MNoC designs, packet
// traces, and multicore-simulation results. Every artifact is stored as
// an immutable blob under a key derived from a hash of its inputs
// (radix, seed, QAP budget, benchmark, device configuration, ...), so a
// warm re-run of the full evaluation skips every solve.
//
// Two Store implementations exist: Memory (the default — per-process,
// what exp.Context always had) and Disk (opt-in via --cache-dir, shared
// across processes). Blobs carry a self-describing envelope (magic,
// kind, format version); bumping a codec's version changes both the
// envelope and the key, so stale on-disk artifacts are simply never
// looked up again. docs/RUNNER.md describes the scheme.
package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Key names an artifact: the hex SHA-256 of its canonical input
// description (see NewKey).
type Key string

// Stats counts store traffic. Hits and Misses count Get calls; Puts
// counts stored blobs. Corrupt counts blobs whose envelope failed
// validation on read and were quarantined (Disk only; every corrupt
// read also counts as a miss, so Hits+Misses still totals Get calls).
type Stats struct {
	Hits, Misses, Puts, Corrupt uint64
}

// Store is a content-addressed blob store. Implementations must be safe
// for concurrent use. Put is idempotent: storing a key that already
// exists is allowed (content addressing guarantees the bytes match).
type Store interface {
	// Get returns the blob stored under key; ok is false on a miss.
	Get(key Key) (blob []byte, ok bool, err error)
	// Put stores blob under key.
	Put(key Key, blob []byte) error
	// Stats returns the cumulative hit/miss/put counters.
	Stats() Stats
}

// GetOrBuild returns the artifact stored under key, decoded. On a miss
// it stores the blob build returns alongside the value, so a fresh
// build is never decoded again. Errors pass through for the caller to
// wrap; store errors already name the key.
func GetOrBuild[T any](s Store, key Key, decode func([]byte) (T, error), build func() (T, []byte, error)) (T, error) {
	var zero T
	blob, ok, err := s.Get(key)
	if err != nil {
		return zero, err
	}
	if ok {
		return decode(blob)
	}
	v, blob, err := build()
	if err != nil {
		return zero, err
	}
	if err := s.Put(key, blob); err != nil {
		return zero, err
	}
	return v, nil
}

// Locator is implemented by stores that live somewhere nameable — a
// cache directory, a remote base URL — so run summaries can say where
// the artifacts went without type-asserting every concrete store.
type Locator interface {
	// Location describes the store's backing, e.g. "/tmp/cache" for a
	// disk store or "remote http://host:port" for the fleet store.
	Location() string
}

// counters is the shared atomic Stats backing.
type counters struct {
	hits, misses, puts, corrupt atomic.Uint64
}

func (c *counters) stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Puts:    c.puts.Load(),
		Corrupt: c.corrupt.Load(),
	}
}

// Memory is the in-process Store: a plain map. It is the default cache
// behind exp.Context, preserving the old per-run memoisation semantics.
type Memory struct {
	mu sync.RWMutex
	m  map[Key][]byte
	c  counters
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{m: make(map[Key][]byte)} }

// Get implements Store.
func (s *Memory) Get(key Key) ([]byte, bool, error) {
	s.mu.RLock()
	blob, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		s.c.misses.Add(1)
		return nil, false, nil
	}
	s.c.hits.Add(1)
	return blob, true, nil
}

// Put implements Store.
func (s *Memory) Put(key Key, blob []byte) error {
	cp := append([]byte(nil), blob...)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	s.c.puts.Add(1)
	return nil
}

// Stats implements Store.
func (s *Memory) Stats() Stats { return s.c.stats() }

// Len reports the number of stored artifacts.
func (s *Memory) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Disk is the persistent Store: one file per artifact under
// dir/<k[:2]>/<k>.art (the two-character fan-out keeps directories
// small at paper scale). Writes go through a temp file + rename, so a
// crashed run never leaves a truncated artifact behind; reads validate
// the envelope anyway (caches written before the rename scheme, failing
// disks, hand-edited files) and quarantine anything malformed to
// <key>.corrupt instead of failing the request — the caller just sees
// a miss and re-solves.
type Disk struct {
	dir string
	c   counters

	// onCorrupt, when set, is called once per quarantined blob. Instrument
	// wires it to the artifact.corrupt counter; it must be set before the
	// store sees traffic.
	onCorrupt func()
}

// NewDisk opens (creating if needed) a disk store rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Location implements Locator.
func (s *Disk) Location() string { return s.dir }

func (s *Disk) path(key Key) (string, error) {
	if len(key) < 4 {
		return "", fmt.Errorf("artifact: malformed key %q", key)
	}
	return filepath.Join(s.dir, string(key[:2]), string(key)+".art"), nil
}

// Get implements Store. A blob whose envelope fails validation is
// quarantined (renamed to <key>.corrupt, so the evidence survives for
// inspection but never resurfaces as a hit) and reported as a miss:
// cache corruption costs a re-solve, not the request.
func (s *Disk) Get(key Key) ([]byte, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	blob, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		s.c.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("artifact: reading %s: %w", key, err)
	}
	if err := CheckEnvelope(blob); err != nil {
		s.quarantine(p)
		s.c.corrupt.Add(1)
		s.c.misses.Add(1)
		return nil, false, nil
	}
	s.c.hits.Add(1)
	return blob, true, nil
}

// quarantine moves a corrupt blob aside so the next Get of the same key
// is a clean miss. Rename is atomic on the same filesystem; if it fails
// (e.g. a concurrent quarantine won the race) fall back to removal —
// leaving the corrupt file in place would make every future Get re-read
// garbage.
func (s *Disk) quarantine(p string) {
	if err := os.Rename(p, strings.TrimSuffix(p, ".art")+".corrupt"); err != nil {
		os.Remove(p)
	}
	if s.onCorrupt != nil {
		s.onCorrupt()
	}
}

// Put implements Store.
func (s *Disk) Put(key Key, blob []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: writing %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: committing %s: %w", key, err)
	}
	s.c.puts.Add(1)
	return nil
}

// Stats implements Store.
func (s *Disk) Stats() Stats { return s.c.stats() }
