package sparse

import (
	"math"
	"math/rand"
	"testing"

	"acstab/internal/linalg"
)

// allNodes returns 0..n-1.
func allNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// selInvSetup compiles a stamp stream, analyzes it and builds the
// selected-inverse plan plus a numeric refilled with the stream's values.
func selInvSetup(t *testing.T, n int, calls []stampCall) (*Pattern, []complex128, *Numeric, *SelInv) {
	t.Helper()
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals)
	if err != nil {
		t.Fatal(err)
	}
	si, err := sym.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()
	if err := num.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	return pat, vals, num, si
}

// checkDiagAgainstDense compares got[i] = (A⁻¹)_{jj}, j = nodes[i],
// against the dense partial-pivoting oracle at 1e-9 relative to each
// entry's own magnitude.
func checkDiagAgainstDense(t *testing.T, what string, n int, calls []stampCall, nodes []int, got []complex128) {
	t.Helper()
	lu, err := linalg.CFactor(denseOf(n, calls))
	if err != nil {
		t.Fatalf("%s: dense oracle: %v", what, err)
	}
	for i, j := range nodes {
		want, err := lu.SolveColumn(j, j)
		if err != nil {
			t.Fatalf("%s: dense oracle: %v", what, err)
		}
		if d := cabs(got[i] - want); d > 1e-9*math.Max(cabs(want), 1e-300) {
			t.Fatalf("%s: node %d: selected inverse %v vs dense %v (|d|=%g)", what, j, got[i], want, d)
		}
	}
}

// TestSolveDiagAgreesWithSolveInto: on the ladder pattern across many
// value sets, the selected-inverse diagonal must produce the same Z_kk a
// full forward+backward substitution does, for every node, at 1e-9
// scale-relative.
func TestSolveDiagAgreesWithSolveInto(t *testing.T) {
	const n = 24
	pat, _, num, si := selInvSetup(t, n, ladderStamp(n, 1e6))
	nodes := allNodes(n)
	dst := make([]complex128, n)
	z := si.NewZ()
	b := make([]complex128, n)
	x := make([]complex128, n)
	for _, omega := range []float64{1, 1e3, 1e6, 1e9, 1e12} {
		if err := num.Refactor(stamp(pat, ladderStamp(n, omega))); err != nil {
			t.Fatalf("omega %g: %v", omega, err)
		}
		if err := num.DiagInverseInto(dst, nodes, si, z); err != nil {
			t.Fatalf("omega %g: %v", omega, err)
		}
		for k := 0; k < n; k++ {
			b[k] = 1
			if err := num.SolveInto(x, b); err != nil {
				t.Fatalf("omega %g node %d: %v", omega, k, err)
			}
			b[k] = 0
			want := x[k]
			if d := cabs(dst[k] - want); d > 1e-9*cabs(want) {
				t.Errorf("omega %g node %d: diag %v vs full %v (|d|=%g)", omega, k, dst[k], want, d)
			}
		}
	}
}

// TestSolveDiagSubsetAndOrder: the gather preserves caller node order and
// works for arbitrary subsets, including repeated nodes.
func TestSolveDiagSubsetAndOrder(t *testing.T) {
	const n = 16
	calls := ladderStamp(n, 1e5)
	_, _, num, si := selInvSetup(t, n, calls)
	nodes := []int{9, 2, 2, 15, 0}
	dst := make([]complex128, len(nodes))
	if err := num.DiagInverseInto(dst, nodes, si, si.NewZ()); err != nil {
		t.Fatal(err)
	}
	checkDiagAgainstDense(t, "subset", n, calls, nodes, dst)
	if dst[1] != dst[2] {
		t.Errorf("repeated node solved inconsistently: %v vs %v", dst[1], dst[2])
	}
}

// TestSolveDiagAllocationFree pins the steady-state contract of the
// selected-inverse kernel: pencil fill + refactor + DiagInverseInto must
// not allocate at all once the plan, the numeric storage and the Z
// scratch exist.
func TestSolveDiagAllocationFree(t *testing.T) {
	const n = 32
	calls := ladderStamp(n, 1)
	pat, vals, num, si := selInvSetup(t, n, calls)
	pc := pencilOf(pat, calls)
	nodes := allNodes(n)
	dst := make([]complex128, n)
	z := si.NewZ()
	allocs := testing.AllocsPerRun(50, func() {
		pc.FillInto(vals, 1e6)
		if err := num.Refactor(vals); err != nil {
			t.Fatal(err)
		}
		if err := num.DiagInverseInto(dst, nodes, si, z); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state fill+refactor+selected-inverse allocated %v times per run, want 0", allocs)
	}
}

// TestSelInvErrors: out-of-range nodes, a mis-sized dst or Z scratch, and
// a plan built for another symbolic analysis are all rejected.
func TestSelInvErrors(t *testing.T) {
	const n = 8
	_, _, num, si := selInvSetup(t, n, ladderStamp(n, 1e4))
	z := si.NewZ()
	if si.Covers([]int{n}) || si.Covers([]int{-1}) {
		t.Error("Covers accepted an out-of-range node")
	}
	if err := num.DiagInverseInto(make([]complex128, 1), []int{n}, si, z); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := num.DiagInverseInto(make([]complex128, 3), []int{0, 1}, si, z); err == nil {
		t.Error("mis-sized dst accepted")
	}
	if err := num.DiagInverseInto(make([]complex128, 2), []int{0, 1}, si, z[1:]); err == nil {
		t.Error("mis-sized Z scratch accepted")
	}
	_, _, num2, _ := selInvSetup(t, n, ladderStamp(n, 1e4))
	if err := num2.DiagInverseInto(make([]complex128, 2), []int{0, 1}, si, z); err == nil {
		t.Error("plan from a different symbolic accepted")
	}
	if err := num2.DiagInverseInto(make([]complex128, 2), []int{0, 1}, nil, z); err == nil {
		t.Error("nil plan accepted")
	}
}

// blockStamp builds a block-diagonal stamp stream: k independent 3-node
// blocks, the shape of the resonator-field workload.
func blockStamp(k int, omega float64) []stampCall {
	var calls []stampCall
	for blk := 0; blk < k; blk++ {
		base := 3 * blk
		for a := 0; a < 3; a++ {
			calls = append(calls, stampCall{base + a, base + a,
				complex(1e-3*float64(a+1), omega*1e-12)})
		}
		for a := 0; a < 2; a++ {
			v := complex(1e-4, omega*1e-13)
			calls = append(calls,
				stampCall{base + a, base + a + 1, -v},
				stampCall{base + a + 1, base + a, -v})
		}
	}
	return calls
}

// TestSelInvBlockDiagonal: on a block-diagonal system the selected
// inverse stays inside each block — at most the 3×3 block per block, far
// below the 2·n² rows per-node substitutions would visit — and still
// matches the dense oracle.
func TestSelInvBlockDiagonal(t *testing.T) {
	const blocks = 8
	n := 3 * blocks
	calls := blockStamp(blocks, 1e6)
	_, _, num, si := selInvSetup(t, n, calls)
	if got, limit := si.Entries(), int64(9*blocks); got > limit {
		t.Errorf("Entries = %d, want <= %d on a block-diagonal system", got, limit)
	}
	nodes := allNodes(n)
	dst := make([]complex128, n)
	if err := num.DiagInverseInto(dst, nodes, si, si.NewZ()); err != nil {
		t.Fatal(err)
	}
	checkDiagAgainstDense(t, "block diagonal", n, calls, nodes, dst)
}

// rlcLadderStamp is an RC/RLC ladder with random element values: series
// conductances along the chain, shunt capacitance at every node, and an
// inductive branch (an extra unknown with no diagonal stamp when its
// inductance is zero) hanging off a random subset of nodes.
func rlcLadderStamp(rng *rand.Rand, stages int, omega float64) (int, []stampCall) {
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	n := stages
	var calls []stampCall
	for k := 0; k < stages; k++ {
		calls = append(calls, stampCall{k, k, complex(1e-9, omega*logU(1e-12, 1e-6))})
		if k+1 < stages {
			g := complex(1/logU(10, 1e5), 0)
			calls = append(calls,
				stampCall{k, k, g}, stampCall{k + 1, k + 1, g},
				stampCall{k, k + 1, -g}, stampCall{k + 1, k, -g})
		}
		if rng.Intn(3) == 0 {
			// Inductor to ground in MNA branch form: row/col b carries the
			// incidence, the branch equation holds -jωL on the diagonal.
			b := n
			n++
			calls = append(calls,
				stampCall{k, b, 1}, stampCall{b, k, 1},
				stampCall{b, b, complex(0, -omega*logU(1e-9, 1e-3))})
		}
	}
	return n, calls
}

// vccsStamp builds a random system with transconductance-style one-sided
// couplings (entry (i,j) without (j,i)), so the L and U patterns of the
// factorization differ.
func vccsStamp(rng *rand.Rand, n int, omega float64) []stampCall {
	var calls []stampCall
	for i := 0; i < n; i++ {
		calls = append(calls, stampCall{i, i, complex(1+rng.Float64(), omega*1e-9*(1+rng.Float64()))})
	}
	for e := 0; e < 2*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		calls = append(calls, stampCall{i, j, complex(0.4*(rng.Float64()-0.5), 0)})
	}
	return calls
}

// TestSelInvDenseOracleProperty: the selected-inverse diagonal agrees
// with the dense oracle at 1e-9 on random RC/RLC ladders up to 400
// stages, block resonator fields, and one-sided (VCCS/CCCS-style)
// couplings whose L and U patterns differ, across frequency.
func TestSelInvDenseOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type system struct {
		name  string
		n     int
		calls func(omega float64) []stampCall
	}
	var systems []system
	for _, stages := range []int{5, 40, 150, 400} {
		seed := rng.Int63()
		n, _ := rlcLadderStamp(rand.New(rand.NewSource(seed)), stages, 1)
		systems = append(systems, system{"rlc-ladder", n, func(omega float64) []stampCall {
			_, calls := rlcLadderStamp(rand.New(rand.NewSource(seed)), stages, omega)
			return calls
		}})
	}
	systems = append(systems, system{"block-field", 3 * 16, func(omega float64) []stampCall { return blockStamp(16, omega) }})
	for _, n := range []int{6, 30, 90} {
		seed := rng.Int63()
		systems = append(systems, system{"vccs", n, func(omega float64) []stampCall {
			return vccsStamp(rand.New(rand.NewSource(seed)), n, omega)
		}})
	}
	sawAsymmetric := false
	for _, sys := range systems {
		omegas := []float64{2 * math.Pi, 2 * math.Pi * 1e4, 2 * math.Pi * 1e8}
		pat, _, num, si := selInvSetup(t, sys.n, sys.calls(omegas[0]))
		if len(num.sym.lsrc) != len(num.sym.ucol) {
			sawAsymmetric = true
		}
		nodes := allNodes(sys.n)
		dst := make([]complex128, sys.n)
		z := si.NewZ()
		for _, omega := range omegas {
			calls := sys.calls(omega)
			if err := num.Refactor(stamp(pat, calls)); err != nil {
				t.Fatalf("%s n=%d omega %g: %v", sys.name, sys.n, omega, err)
			}
			if err := num.DiagInverseInto(dst, nodes, si, z); err != nil {
				t.Fatalf("%s n=%d omega %g: %v", sys.name, sys.n, omega, err)
			}
			checkDiagAgainstDense(t, sys.name, sys.n, calls, nodes, dst)
		}
	}
	if !sawAsymmetric {
		t.Error("no system had differing L and U patterns; the VCCS arm lost its purpose")
	}
}

// TestStructuralDiagonalClosure: node 0 is touched only by a voltage
// source (branch 2) and an inductor (branch 3), so no call stamps its
// diagonal. CloseDiagonal over the node unknowns still gives it a
// (never-stamped, zero) diagonal slot, so its inverse diagonal is on the
// filled pattern, while the unclosed voltage-source branch stays off it.
// The replayed call stream still matches the recorded one.
func TestStructuralDiagonalClosure(t *testing.T) {
	calls := []stampCall{
		{0, 2, 1}, {2, 0, 1},
		{0, 3, 1}, {3, 0, 1}, {1, 3, -1}, {3, 1, -1}, {3, 3, complex(0, -1e-3)},
		{1, 1, 1e-3},
	}
	const n, nodes = 4, 2
	rec := NewRecorder(n)
	rec.CloseDiagonal(nodes)
	replay(rec, calls)
	pat := rec.Compile()
	if pat.NNZ() != 9 {
		t.Errorf("NNZ = %d, want the 8 stamped positions plus (0,0)", pat.NNZ())
	}
	if pat.SlotOf(0, 0) < 0 {
		t.Error("no closure slot for node 0")
	}
	if pat.SlotOf(2, 2) >= 0 {
		t.Error("closure reached the voltage-source branch")
	}
	pc := pencilOf(pat, calls)
	if pc == nil {
		t.Fatal("the recorded stream does not match its own closed pattern")
	}
	vals := make([]complex128, pat.NNZ())
	pc.FillInto(vals, 1)
	if v := vals[pat.SlotOf(0, 0)]; v != 0 {
		t.Errorf("closure slot holds %v, want 0", v)
	}
	sym, err := pat.Analyze(vals)
	if err != nil {
		t.Fatal(err)
	}
	si, err := sym.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()
	if err := num.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3}
	if !si.Covers(want) {
		t.Fatal("selected inverse does not cover the nodes and the inductor branch")
	}
	dst := make([]complex128, len(want))
	if err := num.DiagInverseInto(dst, want, si, si.NewZ()); err != nil {
		t.Fatal(err)
	}
	checkDiagAgainstDense(t, "closure", n, calls, want, dst)

	// Without the closure node 0's inverse diagonal is off the pattern.
	pat2, vals2 := compile(n, calls)
	sym2, err := pat2.Analyze(vals2)
	if err != nil {
		t.Fatal(err)
	}
	si2, err := sym2.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	if si2.Covers([]int{0}) {
		t.Error("node 0 covered without a structural diagonal")
	}
}
