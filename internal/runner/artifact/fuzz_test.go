package artifact

import (
	"testing"

	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/topo"
	"mnoc/internal/workload"
)

// FuzzOpenEnvelope hammers the MART envelope and every codec behind it.
// Blobs reach the decoders from disk caches and, on an artifact-serving
// node, from PUT /artifacts/<key>, so any bytes must decode or fail with
// an error, never panic or size an allocation from a corrupt count. A
// blob CheckEnvelope rejects must be rejected by every decoder too.
func FuzzOpenEnvelope(f *testing.F) {
	const n = 8
	cfg := power.DefaultConfig(n)
	b, err := workload.ByName("water_s")
	if err != nil {
		f.Fatal(err)
	}
	sample, err := b.Matrix(n, 1)
	if err != nil {
		f.Fatal(err)
	}
	tr, err := b.Trace(n, 200, 20, 1)
	if err != nil {
		f.Fatal(err)
	}
	trBlob, err := EncodeTrace(tr)
	if err != nil {
		f.Fatal(err)
	}
	tp, err := topo.DistanceBased(n, []int{n / 2, n - 1 - n/2})
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		nil,
		magic,
		Envelope(KindMatrix, VersionMatrix, nil),
		EncodeMatrix(sample),
		EncodeAssignment(mapping.Assignment{2, 0, 1, 3}),
		trBlob,
		EncodeSweep([]byte("== fig8 ==\n")),
		EncodePerf(12345, 67890),
	}
	for _, w := range []power.Weighting{power.UniformWeighting(tp.Modes), power.SampledWeighting(sample)} {
		net, err := power.NewMNoC(cfg, tp, w)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := EncodeNetwork(net)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	for _, s := range seeds {
		f.Add(s)
		if len(s) > 1 {
			f.Add(s[:len(s)/2])
		}
	}

	decoders := []struct {
		name   string
		decode func([]byte) error
	}{
		{"matrix", func(b []byte) error { _, err := DecodeMatrix(b); return err }},
		{"assignment", func(b []byte) error { _, err := DecodeAssignment(b); return err }},
		{"trace", func(b []byte) error { _, err := DecodeTrace(b); return err }},
		{"network", func(b []byte) error { _, err := DecodeNetwork(cfg, b); return err }},
		{"sweep", func(b []byte) error { _, err := DecodeSweep(b); return err }},
		{"perf", func(b []byte) error { _, _, err := DecodePerf(b); return err }},
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		envErr := CheckEnvelope(blob)
		for _, d := range decoders {
			if err := d.decode(blob); err == nil && envErr != nil {
				t.Errorf("%s decoded a blob CheckEnvelope rejects: %v", d.name, envErr)
			}
		}
	})
}
