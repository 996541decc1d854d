package analysis

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/linalg"
	"acstab/internal/mna"
	"acstab/internal/netlist"
)

// pencilSeeds are the paper's seed circuits plus the transistor-level
// op-amp (MOS) and bias (BJT) circuits, whose device stamps come from the
// operating point.
func pencilSeeds() []struct {
	name string
	ckt  *netlist.Circuit
} {
	return []struct {
		name string
		ckt  *netlist.Circuit
	}{
		{"second-order", circuits.SecondOrder(0.35, 1e6)},
		{"opamp-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults())},
		{"bias", circuits.BiasCircuit(circuits.BiasDefaults())},
		{"full", circuits.FullCircuit()},
		{"rc-ladder-40", circuits.RCLadder(40)},
		{"resonator-field-8", circuits.ResonatorField(8, 1e5, 0.35)},
		{"transistor-opamp", circuits.TransistorOpAmp()},
		{"transistor-bias", circuits.TransistorBias()},
	}
}

// randomControlled builds a randomized RLC ladder with one of each
// controlled source (VCVS, VCCS, CCCS, CCVS) hung off random ladder
// nodes, each driving a resistively loaded node so the DC system stays
// well posed.
func randomControlled(rng *rand.Rand, stages int) *netlist.Circuit {
	c := randomLadder(rng, stages)
	node := func() string { return fmt.Sprintf("s%d", 1+rng.Intn(stages)) }
	gain := func() float64 { return 0.1 + rng.Float64() }
	c.AddE("E1", "e1", "0", node(), "0", gain())
	c.AddR("RE1", "e1", node(), 1e3+1e4*rng.Float64())
	c.AddG("G1", node(), "0", node(), "0", gain()*1e-4)
	c.AddF("F1", node(), "0", "V1", gain()*1e-2)
	c.AddH("H1", "h1", "0", "V1", gain()*1e2)
	c.AddR("RH1", "h1", node(), 1e3+1e4*rng.Float64())
	c.AddC("CH1", "h1", "0", 1e-12*(1+rng.Float64()))
	return c
}

// TestACPencilMatchesStampAC pins the affine invariant the sparse engine
// assembles every AC matrix from: at 20 log-spaced frequencies, the pencil
// fill G + jωC equals a dense StampAC entry by entry within
// 4ε·(|G| + ω|C|), and the recorded excitation equals the stamped one
// exactly. A stamp whose value is not affine in ω (a complex
// conductance, a delay) fails here.
func TestACPencilMatchesStampAC(t *testing.T) {
	type tc struct {
		name string
		ckt  *netlist.Circuit
	}
	var cases []tc
	for _, sc := range pencilSeeds() {
		cases = append(cases, tc{sc.name, sc.ckt})
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3; i++ {
		cases = append(cases, tc{fmt.Sprintf("random-rlc-%d", i), randomLadder(rng, 5+rng.Intn(20))})
		cases = append(cases, tc{fmt.Sprintf("random-controlled-%d", i), randomControlled(rng, 5+rng.Intn(20))})
	}
	const eps = 0x1p-52
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := compile(t, c.ckt)
			op := mustOP(t, s)
			pen := s.pencil(op)
			pat := pen.pc.Pattern()
			n := s.Sys.NumUnknowns()
			g, cm := s.denseGC(op)
			vals := make([]complex128, pat.NNZ())
			for k := 0; k < 20; k++ {
				omega := 2 * math.Pi * math.Pow(10, float64(k)*9/19)
				pen.pc.FillInto(vals, omega)
				m := linalg.NewCMatrix(n)
				b := make([]complex128, n)
				s.Sys.StampAC(m, b, omega, op)
				for i := 0; i < n; i++ {
					if b[i] != pen.b[i] {
						t.Fatalf("excitation[%d] = %v, stamped %v", i, pen.b[i], b[i])
					}
					for j := 0; j < n; j++ {
						var got complex128
						if slot := pat.SlotOf(i, j); slot >= 0 {
							got = vals[slot]
						}
						want := m.At(i, j)
						tol := 4 * eps * (cmplx.Abs(g.At(i, j)) + omega*cmplx.Abs(cm.At(i, j)))
						if d := cmplx.Abs(got - want); d > tol {
							t.Fatalf("ω=%g (%d,%d): pencil %v, StampAC %v (|d|=%g > %g)", omega, i, j, got, want, d, tol)
						}
					}
				}
			}
		})
	}
}

// nmosSwapCircuit is a grounded-gate NMOS between a drain supply VD and a
// source resistor. Flipping VD's sign flips vds, and Linearize then swaps
// the device's drain and source in the small-signal stamp.
func nmosSwapCircuit() *netlist.Circuit {
	c := netlist.NewCircuit("nmos vds swap")
	c.SetModel("nch", "nmos", map[string]float64{
		"vto": 0.7, "kp": 100e-6, "lambda": 0.04,
		"tox": 20e-9, "cgso": 0.3e-9, "cgdo": 0.3e-9,
	})
	c.AddVDC("VG", "g", "0", 2.5)
	c.AddV("VD", "vd", "0", netlist.SourceSpec{DC: 2, ACMag: 1})
	c.AddR("RD", "vd", "d", 2e3)
	c.AddM("M1", "d", "g", "s", "0", "nch", 10e-6, 1e-6)
	c.AddR("RS", "s", "0", 1e3)
	c.AddC("CL", "d", "0", 1e-12)
	c.AddC("CS", "s", "0", 0.5e-12)
	return c
}

// TestACPencilOperatingPointSwap: one NMOS Sim swept at two operating
// points with opposite vds. The second changes the stamp call stream, so
// its pencil build re-records the pattern and rebuilds the symbolic
// analysis exactly once; both operating points' sweeps match the dense
// oracle.
func TestACPencilOperatingPointSwap(t *testing.T) {
	s := compile(t, nmosSwapCircuit())
	freqs := sweepFreqs(16)
	idx := allNodeIdx(s)
	vds := func(op *mna.OpPoint) float64 { return v(t, s, op, "d") - v(t, s, op, "s") }
	sweep := func(what string, op *mna.OpPoint) {
		t.Helper()
		res, err := s.AC(context.Background(), freqs, op)
		if err != nil {
			t.Fatal(err)
		}
		checkSolutions(t, what+" AC", freqs, denseAC(t, s.Sys, freqs, op), res.Sol, oracleTol)
		z, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		checkImpedances(t, what+" diag", freqs, denseZ(t, s.Sys, freqs, op, idx), z)
	}

	op1 := mustOP(t, s)
	if d := vds(op1); d <= 0 {
		t.Fatalf("first operating point vds = %g, want > 0", d)
	}
	sweep("vds>0", op1)
	sig1, _ := s.ACChecksum()

	if !s.Sys.SetSourceDC("VD", -2) {
		t.Fatal("no VD source")
	}
	op2 := mustOP(t, s)
	if d := vds(op2); d >= 0 {
		t.Fatalf("second operating point vds = %g, want < 0", d)
	}
	builds0 := mACSymbolicBuilds.Value()
	sweep("vds<0", op2)
	if d := mACSymbolicBuilds.Value() - builds0; d != 1 {
		t.Errorf("symbolic builds across the swapped operating point = %d, want 1", d)
	}
	if sig2, warm := s.ACChecksum(); !warm || sig2 == sig1 {
		t.Errorf("checksum after the swap = %x (warm %v), first %x: want a warm new pattern", sig2, warm, sig1)
	}
}
