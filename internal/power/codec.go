package power

import (
	"encoding/binary"
	"fmt"
	"math"

	"mnoc/internal/phys"
	"mnoc/internal/splitter"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
	"mnoc/internal/waveguide"
)

// The runner's artifact cache persists solved MNoC designs so warm
// re-runs skip every splitter solve. The payload format below is
// versioned by the artifact envelope (internal/runner/artifact); any
// incompatible change here must bump artifact.VersionNetwork.
//
// The device Config is NOT serialised: a cached design is only looked
// up under a key that already embeds the configuration fingerprint, so
// DecodePayload takes the caller's Config and rebinds the design to it.

// appendFloats appends a float64-kind slice as raw little-endian bits.
// The defined unit types (phys.MicroWatts etc.) serialise to exactly
// the bytes their underlying float64 values would.
func appendFloats[F ~float64](buf []byte, vs []F) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
	}
	return buf
}

// readFloats consumes len(dst) float64-kind values from payload.
func readFloats[F ~float64](payload []byte, dst []F) ([]byte, error) {
	if len(payload) < 8*len(dst) {
		return nil, fmt.Errorf("power: truncated design payload")
	}
	for i := range dst {
		dst[i] = F(math.Float64frombits(binary.LittleEndian.Uint64(payload)))
		payload = payload[8:]
	}
	return payload, nil
}

// EncodePayload serialises the solved design (topology, per-source
// splitter chains, mode reach and design-time weighting) for the
// artifact cache.
func (m *MNoC) EncodePayload() ([]byte, error) {
	n, modes := m.Cfg.N, m.Topology.Modes
	buf := make([]byte, 0, 8*n*(n+2*modes+4))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(modes))
	buf = binary.AppendUvarint(buf, uint64(len(m.Topology.Name)))
	buf = append(buf, m.Topology.Name...)
	for _, row := range m.Topology.ModeOf {
		for _, md := range row {
			buf = binary.AppendUvarint(buf, uint64(md+1)) // -1 (self) → 0
		}
	}
	for src, d := range m.Designs {
		if d == nil {
			return nil, fmt.Errorf("power: source %d has no design", src)
		}
		buf = binary.AppendUvarint(buf, uint64(d.Chain.Source))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Chain.DirLow))
		buf = binary.AppendUvarint(buf, uint64(d.Chain.Layout.N))
		buf = appendFloats(buf, []float64{d.Chain.Layout.LengthCM, float64(d.Chain.Layout.LossDBPerCM)})
		buf = appendFloats(buf, d.Chain.Taps)
		buf = binary.AppendUvarint(buf, uint64(len(d.Alphas)))
		buf = appendFloats(buf, d.Alphas)
		buf = appendFloats(buf, d.ModePowerUW)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(d.InGuideMode0UW)))
		for _, r := range m.modeReach[src] {
			buf = binary.AppendUvarint(buf, uint64(r))
		}
	}
	switch {
	case m.weighting.Fracs != nil:
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(m.weighting.Fracs)))
		buf = appendFloats(buf, m.weighting.Fracs)
	case m.weighting.Sample != nil:
		buf = append(buf, 2)
		buf = binary.AppendUvarint(buf, uint64(m.weighting.Sample.N))
		for _, row := range m.weighting.Sample.Counts {
			buf = appendFloats(buf, row)
		}
	default:
		buf = append(buf, 0)
	}
	return buf, nil
}

// uvarint consumes one uvarint from payload.
func uvarint(payload []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, fmt.Errorf("power: truncated design payload")
	}
	return v, payload[k:], nil
}

// count consumes a uvarint element count and checks that payload still
// holds at least size bytes per element, so a corrupt count fails
// before it sizes an allocation.
func count(payload []byte, size int) (int, []byte, error) {
	v, payload, err := uvarint(payload)
	if err != nil {
		return 0, nil, err
	}
	if v > uint64(len(payload)/size) {
		return 0, nil, fmt.Errorf("power: truncated design payload: count %d in %d bytes", v, len(payload))
	}
	return int(v), payload, nil
}

// DecodePayload reverses EncodePayload, rebinding the design to the
// given device configuration (which must be the one the design was
// solved under — the artifact key guarantees that).
func DecodePayload(cfg Config, payload []byte) (*MNoC, error) {
	n64, payload, err := uvarint(payload)
	if err != nil {
		return nil, err
	}
	if int(n64) != cfg.N {
		return nil, fmt.Errorf("power: cached design for %d nodes, config for %d", n64, cfg.N)
	}
	n := int(n64)
	modes, payload, err := count(payload, 1) // n mode reaches per source
	if err != nil {
		return nil, err
	}
	nameLen, payload, err := uvarint(payload)
	if err != nil {
		return nil, err
	}
	if uint64(len(payload)) < nameLen {
		return nil, fmt.Errorf("power: truncated design payload")
	}
	name := string(payload[:nameLen])
	payload = payload[nameLen:]

	t := topo.New(n, modes, name)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			var md uint64
			if md, payload, err = uvarint(payload); err != nil {
				return nil, err
			}
			t.ModeOf[s][d] = int(md) - 1
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("power: cached topology invalid: %w", err)
	}

	out := &MNoC{
		Cfg:       cfg,
		Topology:  t,
		Designs:   make([]*splitter.Design, n),
		modeReach: make([][]int, n),
	}
	for src := 0; src < n; src++ {
		d := &splitter.Design{InGuideMode0UW: 0}
		var v uint64
		if v, payload, err = uvarint(payload); err != nil {
			return nil, err
		}
		d.Chain.Source = int(v)
		var dir [1]float64
		if len(payload) < 8 {
			return nil, fmt.Errorf("power: truncated design payload")
		}
		if payload, err = readFloats(payload, dir[:]); err != nil {
			return nil, err
		}
		d.Chain.DirLow = dir[0]
		var taps int
		if taps, payload, err = count(payload, 8); err != nil {
			return nil, err
		}
		d.Chain.Layout = waveguide.Layout{N: taps}
		var geom [2]float64
		if payload, err = readFloats(payload, geom[:]); err != nil {
			return nil, err
		}
		d.Chain.Layout.LengthCM, d.Chain.Layout.LossDBPerCM = geom[0], phys.Decibels(geom[1])
		d.Chain.Taps = make([]float64, taps)
		if payload, err = readFloats(payload, d.Chain.Taps); err != nil {
			return nil, err
		}
		var nm int
		if nm, payload, err = count(payload, 16); err != nil { // alphas + mode powers
			return nil, err
		}
		d.Alphas = make([]float64, nm)
		if payload, err = readFloats(payload, d.Alphas); err != nil {
			return nil, err
		}
		d.ModePowerUW = make([]phys.MicroWatts, nm)
		if payload, err = readFloats(payload, d.ModePowerUW); err != nil {
			return nil, err
		}
		var ig [1]float64
		if payload, err = readFloats(payload, ig[:]); err != nil {
			return nil, err
		}
		d.InGuideMode0UW = phys.MicroWatts(ig[0])
		out.Designs[src] = d

		reach := make([]int, modes)
		for md := range reach {
			if v, payload, err = uvarint(payload); err != nil {
				return nil, err
			}
			reach[md] = int(v)
		}
		out.modeReach[src] = reach
	}

	if len(payload) < 1 {
		return nil, fmt.Errorf("power: truncated design payload")
	}
	tag := payload[0]
	payload = payload[1:]
	switch tag {
	case 0:
		// no weighting (never produced by NewMNoC, but tolerated)
	case 1:
		var nf int
		if nf, payload, err = count(payload, 8); err != nil {
			return nil, err
		}
		fr := make([]float64, nf)
		if payload, err = readFloats(payload, fr); err != nil {
			return nil, err
		}
		out.weighting = Weighting{Fracs: fr}
	case 2:
		var sn int
		if sn, payload, err = count(payload, 8); err != nil {
			return nil, err
		}
		if sn != 0 && sn > len(payload)/8/sn {
			return nil, fmt.Errorf("power: truncated design payload: %d² sample in %d bytes", sn, len(payload))
		}
		sm := trace.NewMatrix(sn)
		for s := range sm.Counts {
			if payload, err = readFloats(payload, sm.Counts[s]); err != nil {
				return nil, err
			}
		}
		out.weighting = Weighting{Sample: sm}
	default:
		return nil, fmt.Errorf("power: unknown weighting tag %d", tag)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("power: %d trailing bytes in design payload", len(payload))
	}
	return out, nil
}
