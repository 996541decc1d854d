package tool

import (
	"context"
	"fmt"
	"strings"

	"acstab/internal/analysis"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/wave"
)

// ReturnRatio computes Blackman's return ratio of a controlled source —
// the rigorous loop gain of the feedback loop that closes through it,
// measured without opening the loop or disturbing the bias. It is the
// modern counterpart (Spectre's stb analysis) of the paper's traditional
// broken-loop Bode baseline, included here as an exact cross-check for
// the stability-plot method.
//
// The element must be a VCCS (G element) whose transconductance carries
// the loop; its output is replaced by a unit AC current and the voltage
// returned at its control terminals is measured:
//
//	T(ω) = -gm * v_ctrl(ω)
//
// The returned waveform is the complex loop gain T; feed it to
// LoopGainMargins for the crossover and phase margin.
//
// The circuit's own AC stimuli are zeroed; the operating point is solved
// with the source removed, so the method as implemented applies to
// circuits whose bias does not depend on the probed source (behavioral
// macromodels; for transistor circuits the loop transconductance lives
// inside device models and is not individually removable).
func ReturnRatio(ctx context.Context, ckt *netlist.Circuit, elem string, freqs []float64) (*wave.Wave, error) {
	flat, err := netlist.Flatten(ckt)
	if err != nil {
		return nil, err
	}
	flat.ZeroACSources()
	target := flat.Element(elem)
	if target == nil {
		return nil, fmt.Errorf("tool: no element %q", elem)
	}
	if target.Type != netlist.VCCS {
		return nil, fmt.Errorf("tool: return ratio needs a VCCS (G element), %q is a %s",
			elem, target.Type)
	}
	gm := target.Value
	nodes := target.Nodes

	// Remove the probed source.
	pruned := netlist.NewCircuit(flat.Title)
	pruned.Temp = flat.Temp
	for k, v := range flat.Params {
		pruned.Params[k] = v
	}
	for k, v := range flat.Models {
		pruned.Models[k] = v
	}
	for k, v := range flat.NodeSet {
		pruned.NodeSet[k] = v
	}
	ln := strings.ToLower(elem)
	for _, e := range flat.Elems {
		if strings.ToLower(e.Name) == ln {
			continue
		}
		pruned.Add(e)
	}
	sys, err := mna.Compile(pruned)
	if err != nil {
		return nil, err
	}
	sim := analysis.New(sys)
	op, err := sim.OP(ctx)
	if err != nil {
		return nil, err
	}
	idx := make([]int, 4)
	for i, n := range nodes {
		j, ok := sys.NodeOf(n)
		if !ok {
			return nil, fmt.Errorf("tool: probe node %q vanished", n)
		}
		idx[i] = j
	}
	np, nn, cp, cn := idx[0], idx[1], idx[2], idx[3]

	// Unit replacement current: what the VCCS output would drive.
	b := make([]complex128, sys.NumUnknowns())
	if np >= 0 {
		b[np] -= 1
	}
	if nn >= 0 {
		b[nn] += 1
	}
	sol, err := sim.ACResponse(ctx, freqs, op, b)
	if err != nil {
		return nil, fmt.Errorf("tool: return ratio: %w", err)
	}
	y := make([]complex128, len(freqs))
	for k, x := range sol {
		var vc complex128
		if cp >= 0 {
			vc += x[cp]
		}
		if cn >= 0 {
			vc -= x[cn]
		}
		y[k] = -complex(gm, 0) * vc
	}
	w := wave.New("T("+strings.ToLower(elem)+")", append([]float64(nil), freqs...), y)
	w.XUnit = "Hz"
	w.LogX = true
	return w, nil
}

// LoopGainMargins reads the classic margins off a complex loop-gain
// waveform: unity-gain crossover frequency, phase margin
// (180° + phase at crossover, with the phase referenced so T(DC) sits at
// 0°), and the frequency of 180° total phase lag.
func LoopGainMargins(t *wave.Wave) (fcHz, pmDeg, f180Hz float64, err error) {
	gain := t.DB20()
	phase := t.PhaseDeg()
	cross := gain.Cross(0)
	if len(cross) == 0 {
		return 0, 0, 0, fmt.Errorf("tool: loop gain never crosses 0 dB")
	}
	fcHz = cross[0]
	ref := 180 * roundTo(phase.At(t.X[0])/180)
	pmDeg = 180 + (phase.At(fcHz) - ref)
	if c := phase.Cross(ref - 180); len(c) > 0 {
		f180Hz = c[0]
	}
	return fcHz, pmDeg, f180Hz, nil
}

func roundTo(x float64) float64 {
	if x >= 0 {
		return float64(int(x + 0.5))
	}
	return float64(int(x - 0.5))
}

// LoopGainGrid is a convenience wrapper running ReturnRatio on a log grid.
func LoopGainGrid(ctx context.Context, ckt *netlist.Circuit, elem string, fstart, fstop float64, ppd int) (*wave.Wave, error) {
	return ReturnRatio(ctx, ckt, elem, num.LogGridPPD(fstart, fstop, ppd))
}
