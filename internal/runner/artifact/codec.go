package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/trace"
)

// Artifact kinds and their current codec versions. Bumping a version
// invalidates old blobs implicitly: keys embed the version (NewKey), so
// new runs never look the old blobs up.
const (
	KindMatrix     = "matrix"     // trace.Matrix (calibrated traffic)
	KindAssignment = "assignment" // mapping.Assignment (QAP result)
	KindTrace      = "trace"      // trace.Trace (packet trace)
	KindNetwork    = "network"    // power.MNoC (solved splitter design)
	KindPerf       = "perf"       // multicore-simulation runtimes
	KindSweep      = "sweep"      // merged design-space sweep output (mnoc sweep)

	VersionMatrix     = 1
	VersionAssignment = 1
	VersionTrace      = 1
	VersionNetwork    = 1
	VersionPerf       = 1
	VersionSweep      = 1
)

// magic opens every artifact blob.
var magic = []byte("MART")

// Envelope wraps a payload with the blob's self-description.
func Envelope(kind string, version int, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+2+len(kind)+binary.MaxVarintLen64+len(payload))
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, uint64(len(kind)))
	buf = append(buf, kind...)
	buf = binary.AppendUvarint(buf, uint64(version))
	return append(buf, payload...)
}

// CheckEnvelope validates a blob's framing — magic, kind length, kind
// bytes, version — without caring which kind it is. Disk.Get uses it to
// spot truncated or bit-rotted cache files (a crash mid-write predating
// the temp+rename scheme, a failing disk) before handing them to a
// decoder, and the fleet's remote store validates every blob that
// crosses the wire the same way before treating it as a hit.
func CheckEnvelope(blob []byte) error {
	if len(blob) < len(magic) || !bytes.Equal(blob[:len(magic)], magic) {
		return fmt.Errorf("artifact: bad magic")
	}
	rest := blob[len(magic):]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < klen {
		return fmt.Errorf("artifact: truncated envelope")
	}
	rest = rest[n+int(klen):]
	if _, n := binary.Uvarint(rest); n <= 0 {
		return fmt.Errorf("artifact: truncated envelope")
	}
	return nil
}

// Open checks a blob's envelope against the expected kind and version
// and returns the payload. Content addressing makes mismatches rare
// (the key embeds both), but a corrupted or hand-edited cache file must
// fail loudly rather than decode garbage.
func Open(blob []byte, kind string, version int) ([]byte, error) {
	if len(blob) < len(magic) || !bytes.Equal(blob[:len(magic)], magic) {
		return nil, fmt.Errorf("artifact: bad magic (corrupt %s blob?)", kind)
	}
	rest := blob[len(magic):]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < klen {
		return nil, fmt.Errorf("artifact: truncated %s envelope", kind)
	}
	gotKind := string(rest[n : n+int(klen)])
	rest = rest[n+int(klen):]
	gotVer, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("artifact: truncated %s envelope", kind)
	}
	if gotKind != kind || gotVer != uint64(version) {
		return nil, fmt.Errorf("artifact: blob is %s v%d, want %s v%d", gotKind, gotVer, kind, version)
	}
	return rest[n:], nil
}

// EncodeMatrix serialises a traffic matrix.
func EncodeMatrix(m *trace.Matrix) []byte {
	payload := make([]byte, 0, binary.MaxVarintLen64+8*m.N*m.N)
	payload = binary.AppendUvarint(payload, uint64(m.N))
	for _, row := range m.Counts {
		for _, v := range row {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}
	return Envelope(KindMatrix, VersionMatrix, payload)
}

// DecodeMatrix reverses EncodeMatrix.
func DecodeMatrix(blob []byte) (*trace.Matrix, error) {
	payload, err := Open(blob, KindMatrix, VersionMatrix)
	if err != nil {
		return nil, err
	}
	n64, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("artifact: truncated matrix")
	}
	payload = payload[k:]
	// Compare cell counts, not 8·n² bytes: a corrupt n must not
	// overflow the product into a match and size the allocation.
	cells := uint64(len(payload) / 8)
	if len(payload)%8 != 0 || n64 > cells || n64*n64 != cells {
		return nil, fmt.Errorf("artifact: matrix payload %d bytes, want 8·%d²", len(payload), n64)
	}
	n := int(n64)
	m := trace.NewMatrix(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			m.Counts[s][d] = math.Float64frombits(binary.LittleEndian.Uint64(payload))
			payload = payload[8:]
		}
	}
	return m, nil
}

// EncodeAssignment serialises a QAP thread→core assignment.
func EncodeAssignment(a mapping.Assignment) []byte {
	payload := make([]byte, 0, (len(a)+1)*binary.MaxVarintLen64)
	payload = binary.AppendUvarint(payload, uint64(len(a)))
	for _, c := range a {
		payload = binary.AppendUvarint(payload, uint64(c))
	}
	return Envelope(KindAssignment, VersionAssignment, payload)
}

// DecodeAssignment reverses EncodeAssignment and validates the result
// is a permutation.
func DecodeAssignment(blob []byte) (mapping.Assignment, error) {
	payload, err := Open(blob, KindAssignment, VersionAssignment)
	if err != nil {
		return nil, err
	}
	n64, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("artifact: truncated assignment")
	}
	payload = payload[k:]
	if n64 > uint64(len(payload)) { // every entry takes at least one byte
		return nil, fmt.Errorf("artifact: truncated assignment: %d entries in %d bytes", n64, len(payload))
	}
	a := make(mapping.Assignment, n64)
	for i := range a {
		c, k := binary.Uvarint(payload)
		if k <= 0 {
			return nil, fmt.Errorf("artifact: truncated assignment at %d/%d", i, n64)
		}
		a[i] = int(c)
		payload = payload[k:]
	}
	if err := a.Validate(len(a)); err != nil {
		return nil, fmt.Errorf("artifact: decoded assignment invalid: %w", err)
	}
	return a, nil
}

// EncodeTrace serialises a packet trace (delegating to the trace
// package's binary format inside the artifact envelope).
func EncodeTrace(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		return nil, err
	}
	return Envelope(KindTrace, VersionTrace, buf.Bytes()), nil
}

// DecodeTrace reverses EncodeTrace.
func DecodeTrace(blob []byte) (*trace.Trace, error) {
	payload, err := Open(blob, KindTrace, VersionTrace)
	if err != nil {
		return nil, err
	}
	return trace.Read(bytes.NewReader(payload))
}

// EncodeNetwork serialises a solved power.MNoC design.
func EncodeNetwork(m *power.MNoC) ([]byte, error) {
	payload, err := m.EncodePayload()
	if err != nil {
		return nil, err
	}
	return Envelope(KindNetwork, VersionNetwork, payload), nil
}

// DecodeNetwork reverses EncodeNetwork, rebinding the design to cfg
// (the configuration its key was derived from).
func DecodeNetwork(cfg power.Config, blob []byte) (*power.MNoC, error) {
	payload, err := Open(blob, KindNetwork, VersionNetwork)
	if err != nil {
		return nil, err
	}
	return power.DecodePayload(cfg, payload)
}

// EncodeSweep wraps a merged design-space sweep output (the
// byte-identical table stream `mnoc sweep` assembles from its workers)
// in the artifact envelope, so a whole sweep is one content-addressed
// blob.
func EncodeSweep(merged []byte) []byte {
	return Envelope(KindSweep, VersionSweep, merged)
}

// DecodeSweep reverses EncodeSweep.
func DecodeSweep(blob []byte) ([]byte, error) {
	return Open(blob, KindSweep, VersionSweep)
}

// EncodePerf serialises a pair of simulation runtimes (mNoC and rNoC
// cycles for one benchmark).
func EncodePerf(mnocCycles, rnocCycles uint64) []byte {
	payload := make([]byte, 0, 2*binary.MaxVarintLen64)
	payload = binary.AppendUvarint(payload, mnocCycles)
	payload = binary.AppendUvarint(payload, rnocCycles)
	return Envelope(KindPerf, VersionPerf, payload)
}

// DecodePerf reverses EncodePerf.
func DecodePerf(blob []byte) (mnocCycles, rnocCycles uint64, err error) {
	payload, err := Open(blob, KindPerf, VersionPerf)
	if err != nil {
		return 0, 0, err
	}
	mc, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, fmt.Errorf("artifact: truncated perf blob")
	}
	rc, k2 := binary.Uvarint(payload[k:])
	if k2 <= 0 {
		return 0, 0, fmt.Errorf("artifact: truncated perf blob")
	}
	return mc, rc, nil
}
