// Package sim is the Graphite substitute: a trace-driven multicore
// simulator with in-order cores, private L1/L2 caches, a distributed
// MOSI directory, and a pluggable NoC timing model (package noc). It
// produces the two artefacts the paper extracts from Graphite: an
// end-to-end runtime (for the mNoC vs rNoC performance comparison) and a
// communication packet trace (for the power analyses).
package sim

import (
	"container/heap"
	"fmt"
	"strconv"
	"sync"

	"mnoc/internal/cache"
	"mnoc/internal/coherence"
	"mnoc/internal/noc"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
)

// Config fixes the core and memory-hierarchy parameters (Table 2: in-
// order cores, private 32KB L1D/L1I, 512KB L2, 4-cycle router pipelines
// are in package noc).
type Config struct {
	Cores       int
	L1SizeBytes int
	L1Ways      int
	L2SizeBytes int
	L2Ways      int
	LineBytes   int
	// L1HitCycles/L2HitCycles are access latencies; MemCycles is the
	// DRAM access charged at a block's home node.
	L1HitCycles uint64
	L2HitCycles uint64
	MemCycles   uint64
	// ThinkCycles is the non-memory work between two memory accesses
	// of the in-order core.
	ThinkCycles uint64
	// BroadcastInv enables the Section 7 coherence extension: multi-
	// sharer invalidations ride a single SWMR broadcast instead of
	// per-sharer unicasts.
	BroadcastInv bool
	// Protocol selects the coherence protocol (MOSI default, or MSI
	// for the ablation of the Owned state).
	Protocol coherence.Protocol
}

// DefaultConfig is the paper's Table 2 core model.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:       cores,
		L1SizeBytes: 32 * 1024,
		L1Ways:      4,
		L2SizeBytes: 512 * 1024,
		L2Ways:      8,
		LineBytes:   64,
		L1HitCycles: 1,
		L2HitCycles: 6,
		MemCycles:   100,
		ThinkCycles: 2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 2 {
		return fmt.Errorf("sim: %d cores", c.Cores)
	}
	if c.L1HitCycles == 0 || c.L2HitCycles == 0 || c.MemCycles == 0 {
		return fmt.Errorf("sim: zero latency in %+v", c)
	}
	return nil
}

// Access is one memory operation of a core's stream.
type Access struct {
	Write bool
	Addr  uint64
}

// packetBufPool recycles packet-trace buffers between simulations. A
// benchmark sweep runs thousands of simulations whose traces are read
// once and dropped; Result.Recycle hands the backing array back so the
// next Run starts with a warmed buffer instead of regrowing one.
var packetBufPool = sync.Pool{
	New: func() any { b := make([]trace.Packet, 0, 4096); return &b },
}

// Result summarises a simulation.
type Result struct {
	RuntimeCycles uint64
	// AvgMemLatency is the mean stall of L2-miss accesses.
	AvgMemLatency float64
	Accesses      uint64
	L2Misses      uint64
	Directory     coherence.Stats
	NetworkName   string
	// Trace is the packet log of every network message.
	Trace *trace.Trace
}

// Recycle returns the result's packet buffer to the shared pool and
// detaches the trace. Call it only when the trace is no longer needed
// — the caller must not touch r.Trace (or any slice derived from its
// Packets) afterwards. Recycling is optional; an un-recycled trace is
// simply garbage-collected.
func (r *Result) Recycle() {
	if r == nil || r.Trace == nil {
		return
	}
	pkts := r.Trace.Packets[:0]
	r.Trace = nil
	if cap(pkts) > 0 {
		packetBufPool.Put(&pkts)
	}
}

type core struct {
	id     int
	time   uint64
	next   int // index into its stream
	l1, l2 *cache.Cache
	stream []Access
}

// coreHeap orders cores by current time (ties by id for determinism).
type coreHeap []*core

func (h coreHeap) Len() int { return len(h) }
func (h coreHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].id < h[j].id
}
func (h coreHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *coreHeap) Push(x any)   { *h = append(*h, x.(*core)) }
func (h *coreHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Machine is a configured multicore ready to run access streams.
type Machine struct {
	cfg   Config
	net   noc.Network
	dir   *coherence.Directory
	cores []*core
	// packets accumulates the communication trace.
	packets []trace.Packet
	// heapScratch and groupScratch are per-Run reusable buffers (the
	// event heap and playTransaction's per-stage coalesce-group set).
	heapScratch  coreHeap
	groupScratch []int
	// Optional telemetry sinks (SetTelemetry); nil-safe handles make
	// every metric call a no-op when unset.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

// NewMachine builds the multicore over the given network model.
func NewMachine(cfg Config, net noc.Network) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net.N() != cfg.Cores {
		return nil, fmt.Errorf("sim: network for %d nodes, config for %d cores", net.N(), cfg.Cores)
	}
	dir, err := coherence.New(cfg.Cores, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	dir.BroadcastInv = cfg.BroadcastInv
	dir.Protocol = cfg.Protocol
	m := &Machine{cfg: cfg, net: net, dir: dir}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := cache.New(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		l2, err := cache.New(cfg.L2SizeBytes, cfg.L2Ways, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		m.cores = append(m.cores, &core{id: i, l1: l1, l2: l2})
	}
	return m, nil
}

// SetTelemetry attaches metric and span sinks: each Run then bumps the
// sim.* counters (runs, accesses, L2 misses, packets) and records one span per simulation. Either argument
// may be nil. Not safe to call concurrently with Run.
func (m *Machine) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	m.reg = reg
	m.tracer = tracer
}

// Run executes one access stream per core to completion and returns the
// runtime and trace. streams[i] drives core i.
func (m *Machine) Run(streams [][]Access) (*Result, error) {
	if len(streams) != m.cfg.Cores {
		return nil, fmt.Errorf("sim: %d streams for %d cores", len(streams), m.cfg.Cores)
	}
	defer m.tracer.StartSpan("sim", "run."+m.net.Name()).
		Attr("cores", strconv.Itoa(m.cfg.Cores)).End()
	m.net.Reset()
	if m.packets == nil {
		m.packets = *packetBufPool.Get().(*[]trace.Packet)
	}
	m.packets = m.packets[:0]

	h := m.heapScratch[:0]
	for i, c := range m.cores {
		c.time, c.next, c.stream = 0, 0, streams[i]
		if len(c.stream) > 0 {
			h = append(h, c)
		}
	}
	heap.Init(&h)

	var finish uint64
	var missLatencySum float64
	var accesses, misses uint64

	for h.Len() > 0 {
		c := h[0]
		acc := c.stream[c.next]
		start := c.time + m.cfg.ThinkCycles
		end, wasMiss, err := m.access(c, start, acc)
		if err != nil {
			return nil, err
		}
		accesses++
		if wasMiss {
			misses++
			missLatencySum += float64(end - start)
		}
		c.time = end
		c.next++
		if c.next >= len(c.stream) {
			if c.time > finish {
				finish = c.time
			}
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}

	res := &Result{
		RuntimeCycles: finish,
		Accesses:      accesses,
		L2Misses:      misses,
		Directory:     m.dir.Stats,
		NetworkName:   m.net.Name(),
	}
	m.reg.Counter("sim.runs").Inc()
	m.reg.Counter("sim.accesses").Add(accesses)
	m.reg.Counter("sim.l2_misses").Add(misses)
	m.reg.Counter("sim.packets").Add(uint64(len(m.packets)))
	if misses > 0 {
		res.AvgMemLatency = missLatencySum / float64(misses)
	}
	// Off-critical-path writebacks can be injected after the last core
	// retires; the trace duration must cover them.
	cycles := finish + 1
	for _, p := range m.packets {
		if p.Cycle >= cycles {
			cycles = p.Cycle + 1
		}
	}
	res.Trace = &trace.Trace{N: m.cfg.Cores, Cycles: cycles, Packets: m.packets}
	if err := res.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("sim: generated an invalid trace: %w", err)
	}
	m.packets = nil // ownership moves to the result (see Result.Recycle)
	m.heapScratch = h[:0]
	return res, nil
}

// access runs one memory operation starting at `at` and returns the
// cycle the core can continue, plus whether it was an L2 miss.
func (m *Machine) access(c *core, at uint64, acc Access) (uint64, bool, error) {
	addr := acc.Addr
	// L1.
	if l := c.l1.Lookup(addr); l != nil {
		if !acc.Write || l.State.Writable() {
			return at + m.cfg.L1HitCycles, false, nil
		}
		// Write upgrade needed; fall through to the directory after
		// checking L2 state.
	}
	// L2.
	t := at + m.cfg.L1HitCycles
	if l := c.l2.Lookup(addr); l != nil {
		t += m.cfg.L2HitCycles
		if !acc.Write || l.State.Writable() {
			c.l1.Insert(addr, l.State)
			return t, false, nil
		}
		// Upgrade: directory round trip without data.
		tx, err := m.dir.Write(c.id, addr)
		if err != nil {
			return 0, false, err
		}
		done, err := m.playTransaction(t, tx)
		if err != nil {
			return 0, false, err
		}
		m.applyRemote(addr, tx)
		c.l2.SetState(addr, tx.NewState)
		c.l1.Insert(addr, tx.NewState)
		return done, true, nil
	}
	// L2 miss: full coherence transaction.
	t += m.cfg.L2HitCycles
	var tx coherence.Transaction
	var err error
	if acc.Write {
		tx, err = m.dir.Write(c.id, addr)
	} else {
		tx, err = m.dir.Read(c.id, addr)
	}
	if err != nil {
		return 0, false, err
	}
	done, err := m.playTransaction(t, tx)
	if err != nil {
		return 0, false, err
	}
	m.applyRemote(addr, tx)
	if err := m.fillL2(c, addr, tx.NewState, done); err != nil {
		return 0, false, err
	}
	c.l1.Insert(addr, tx.NewState)
	return done, true, nil
}

// playTransaction times a transaction's messages on the network: stage
// k starts when stage k−1's slowest message has arrived; messages
// marked MemAccess are delayed by the DRAM latency at the home.
func (m *Machine) playTransaction(start uint64, tx coherence.Transaction) (uint64, error) {
	if len(tx.Msgs) == 0 {
		// Fully local transaction (requestor is its own home): charge
		// memory latency only.
		return start + m.cfg.MemCycles, nil
	}
	stageStart := start
	maxStage := 0
	for _, msg := range tx.Msgs {
		if msg.Stage > maxStage {
			maxStage = msg.Stage
		}
	}
	for stage := 0; stage <= maxStage; stage++ {
		stageEnd := stageStart
		// The coalesce-group set is a reusable slice with linear lookup:
		// a stage has at most a handful of broadcast groups, and the
		// scratch keeps this inner loop allocation-free.
		m.groupScratch = m.groupScratch[:0]
		for _, msg := range tx.Msgs {
			if msg.Stage != stage {
				continue
			}
			if msg.Coalesce != 0 {
				if containsInt(m.groupScratch, msg.Coalesce) {
					continue // delivered by the group's broadcast
				}
				m.groupScratch = append(m.groupScratch, msg.Coalesce)
				msg = coalescedRepresentative(tx.Msgs, stage, msg.Coalesce)
			}
			send := stageStart
			if msg.MemAccess {
				send += m.cfg.MemCycles
			}
			arr, err := m.netSend(send, msg.Src, msg.Dst, msg.Flits)
			if err != nil {
				return 0, err
			}
			if arr > stageEnd {
				stageEnd = arr
			}
		}
		stageStart = stageEnd
	}
	return stageStart, nil
}

// netSend injects one message and logs it in the packet trace, which
// the power analysis then charges.
func (m *Machine) netSend(at uint64, src, dst, flits int) (uint64, error) {
	arr, err := m.net.Send(at, src, dst, flits)
	if err != nil {
		return 0, err
	}
	m.packets = append(m.packets, trace.Packet{
		Cycle: at, Src: int32(src), Dst: int32(dst), Flits: int32(flits),
	})
	return arr, nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// coalescedRepresentative picks the farthest destination of a broadcast
// group: one SWMR transmission at the power mode reaching that node
// covers every nearer group member (Section 7 extension).
func coalescedRepresentative(msgs []coherence.Msg, stage, group int) coherence.Msg {
	var rep coherence.Msg
	best := -1
	for _, msg := range msgs {
		if msg.Stage != stage || msg.Coalesce != group {
			continue
		}
		d := msg.Dst - msg.Src
		if d < 0 {
			d = -d
		}
		if d > best {
			best = d
			rep = msg
		}
	}
	return rep
}

// applyRemote applies a transaction's effects on other cores' caches
// (atomic-directory model: remote state changes are immediate).
func (m *Machine) applyRemote(addr uint64, tx coherence.Transaction) {
	if tx.DowngradeOwner >= 0 {
		o := m.cores[tx.DowngradeOwner]
		o.l1.SetState(addr, tx.DowngradeTo)
		o.l2.SetState(addr, tx.DowngradeTo)
	}
	for _, id := range tx.InvalidateAt {
		r := m.cores[id]
		r.l1.Invalidate(addr)
		r.l2.Invalidate(addr)
	}
}

// fillL2 installs a line in L2 and issues the victim's writeback.
func (m *Machine) fillL2(c *core, addr uint64, st cache.State, at uint64) error {
	victim, had := c.l2.Insert(addr, st)
	if !had {
		return nil
	}
	c.l1.Invalidate(victim.Addr) // keep L1 ⊆ L2
	tx, err := m.dir.Evict(c.id, victim.Addr, victim.State)
	if err != nil {
		return fmt.Errorf("sim: evicting %#x: %w", victim.Addr, err)
	}
	// Writebacks are off the critical path: they use the network (and
	// so add contention) but do not stall the core, so the returned
	// cycle is deliberately unused.
	if _, err := m.playTransaction(at, tx); err != nil {
		return err
	}
	return nil
}
