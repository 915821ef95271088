package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mnoc/internal/phys"
	"mnoc/internal/telemetry"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
)

// referenceEvaluateLoss is the per-cell pricing loop EvaluateLoss ran
// before its pricing plan, kept as the oracle of the plan walk: every
// nonzero off-diagonal cell looks up its mode, prices it through
// QDLED.ElectricalPower and adds its draw to that mode's sum. It
// returns the Breakdown and the per-mode source draw (µW) that an
// instrumented LossAverage evaluation observes.
func referenceEvaluateLoss(m *MNoC, mtx *trace.Matrix, cycles float64, model LossModel) (Breakdown, []float64, error) {
	view, err := m.WithLossModel(model)
	if err != nil {
		return Breakdown{}, nil, err
	}
	oePerReceiver := float64(m.Cfg.PD.OEPowerUW())
	modeSrc := make([]float64, m.Topology.Modes)
	var srcSum, oeSum, flits float64
	for s, row := range mtx.Counts {
		powers := view.Designs[s].ModePowerUW
		reach := m.modeReach[s]
		for d, v := range row {
			if v == 0 || d == s {
				continue
			}
			mode := m.Topology.ModeOf[s][d]
			src := v * float64(m.Cfg.QDLED.ElectricalPower(powers[mode]))
			srcSum += src
			modeSrc[mode] += src
			oeSum += v * float64(reach[mode]) * oePerReceiver
			flits += v
		}
	}
	elecPJ := flits * 2 * m.Cfg.Elec.BufferPJPerFlit
	b := Breakdown{
		SourceUW:     phys.MicroWatts(srcSum / cycles),
		OEUW:         phys.MicroWatts(oeSum / cycles),
		ElectricalUW: pjOverCyclesToUW(elecPJ, cycles),
	}
	for k := range modeSrc {
		modeSrc[k] /= cycles
	}
	return b, modeSrc, nil
}

// CheckEvaluateLoss compares m.EvaluateLoss on mtx against the per-cell
// reference with ==: the Breakdown uninstrumented and with a fresh
// registry attached, and under LossAverage every
// power.mode<k>.source_uw observation, read back through
// Histogram.Sum. A worst-case evaluation must observe nothing. It
// leaves m detached from any registry.
func CheckEvaluateLoss(t testing.TB, name string, m *MNoC, mtx *trace.Matrix, cycles float64, model LossModel) {
	t.Helper()
	want, wantModes, err := referenceEvaluateLoss(m, mtx, cycles, model)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	m.Instrument(nil)
	if got, err := m.EvaluateLoss(mtx, cycles, model); err != nil {
		t.Fatalf("%s: %v", name, err)
	} else if got != want {
		t.Errorf("%s %s uninstrumented: EvaluateLoss = %+v, per-cell reference = %+v", name, model, got, want)
	}
	reg := telemetry.NewRegistry()
	m.Instrument(reg)
	defer m.Instrument(nil)
	if got, err := m.EvaluateLoss(mtx, cycles, model); err != nil {
		t.Fatalf("%s: %v", name, err)
	} else if got != want {
		t.Errorf("%s %s instrumented: EvaluateLoss = %+v, per-cell reference = %+v", name, model, got, want)
	}
	for k, w := range wantModes {
		h := reg.Histogram(fmt.Sprintf("power.mode%d.source_uw", k))
		if model == LossWorst {
			if h.Count() != 0 {
				t.Errorf("%s worst: mode %d observed %d times, want 0", name, k, h.Count())
			}
			continue
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			continue // Observe drops non-finite values
		}
		if h.Count() != 1 || h.Sum() != w {
			t.Errorf("%s average: mode %d observed %d values summing to %v, want one of %v", name, k, h.Count(), h.Sum(), w)
		}
	}
}

// FuzzEvaluateLoss differentially tests the pricing-plan walk against
// the per-cell reference on random small networks: n in 2..12, 1 to 4
// modes, a random valid mode assignment (so runs of every length,
// including ones that end at or start after the diagonal), and a
// traffic matrix that is random with zeros and a nonzero diagonal, a
// single hot pair, or all zero. Each input checks both loss models on
// the designed network and on a Resolve'd one with dead receivers.
func FuzzEvaluateLoss(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint8(0))
	f.Add(uint8(2), uint8(1), int64(2), uint8(0))
	f.Add(uint8(10), uint8(3), int64(3), uint8(0))
	f.Add(uint8(7), uint8(2), int64(4), uint8(1))
	f.Add(uint8(10), uint8(3), int64(5), uint8(2))
	f.Add(uint8(4), uint8(3), int64(6), uint8(1))
	f.Fuzz(func(t *testing.T, nRaw, modesRaw uint8, seed int64, shape uint8) {
		n := 2 + int(nRaw)%11
		modes := 1 + int(modesRaw)%4
		rng := rand.New(rand.NewSource(seed))
		tp := topo.New(n, modes, "fuzz")
		for s := range n {
			for d := range n {
				if d != s {
					tp.ModeOf[s][d] = rng.Intn(modes)
				}
			}
		}
		m, err := NewMNoC(DefaultConfig(n), tp, UniformWeighting(modes))
		if err != nil {
			t.Skip(err) // e.g. a mode no destination uses
		}
		mtx := trace.NewMatrix(n)
		switch shape % 3 {
		case 0:
			for s := range n {
				for d := range n {
					if rng.Intn(3) != 0 {
						mtx.Counts[s][d] = float64(rng.Intn(1000)) * rng.Float64()
					}
				}
			}
		case 1:
			s := rng.Intn(n)
			mtx.Counts[s][(s+1+rng.Intn(n-1))%n] = 1 + rng.Float64()*1e6
		}
		cycles := 1 + rng.Float64()*1e6
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = rng.Intn(3) != 0
		}
		alive[rng.Intn(n)] = false
		nets := map[string]*MNoC{"designed": m}
		if r, err := m.Resolve(alive); err == nil {
			nets["resolved"] = r
		}
		for name, net := range nets {
			for _, model := range []LossModel{LossAverage, LossWorst} {
				CheckEvaluateLoss(t, fmt.Sprintf("n=%d modes=%d %s", n, modes, name), net, mtx, cycles, model)
			}
		}
	})
}
