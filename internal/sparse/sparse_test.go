package sparse

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"acstab/internal/linalg"
)

// solveCalls factors the system a stamp stream describes with a fresh
// pivot search (Repivot) and solves it for b.
func solveCalls(n int, calls []stampCall, b []complex128) ([]complex128, error) {
	pat, vals := compile(n, calls)
	nm, err := pat.Repivot(vals.Values())
	if err != nil {
		return nil, err
	}
	x := make([]complex128, n)
	if err := nm.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// denseOf replays a stamp stream into the dense oracle matrix.
func denseOf(n int, calls []stampCall) *linalg.CMatrix {
	m := linalg.NewCMatrix(n)
	replay(m, calls)
	return m
}

// checkResidual fails the test when m·x deviates from b by more than tol
// in any component.
func checkResidual(t *testing.T, m *linalg.CMatrix, x, b []complex128, tol float64) {
	t.Helper()
	ax := m.MulVec(x)
	for i := range b {
		if d := cmplx.Abs(ax[i] - b[i]); d > tol {
			t.Fatalf("residual %g at %d", d, i)
		}
	}
}

func TestSolveKnown(t *testing.T) {
	// [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
	calls := []stampCall{{0, 0, 2}, {0, 1, 1}, {1, 0, 1}, {1, 1, 3}}
	x, err := solveCalls(2, calls, []complex128{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-0.8) > 1e-12 || cmplx.Abs(x[1]-1.4) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

// TestAddAccumulates: duplicate stamp calls sum into one structural slot,
// and a zero-valued call still reserves its position (the pattern is
// structural, so it stays valid at every frequency).
func TestAddAccumulates(t *testing.T) {
	calls := []stampCall{{0, 0, 1}, {0, 0, complex(2, 1)}}
	pat, vals := compile(2, calls)
	if got := vals.Values()[pat.SlotOf(0, 0)]; got != complex(3, 1) {
		t.Errorf("(0,0) = %v", got)
	}
	if pat.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1", pat.NNZ())
	}
	pat, vals = compile(2, append(calls, stampCall{1, 1, 0}))
	if pat.NNZ() != 2 {
		t.Errorf("NNZ with a zero-valued call = %d, want 2", pat.NNZ())
	}
	if got := vals.Values()[pat.SlotOf(1, 1)]; got != 0 {
		t.Errorf("(1,1) = %v, want 0", got)
	}
}

func TestPivotingZeroDiagonal(t *testing.T) {
	// MNA-like pattern with a zero diagonal (ideal source branch).
	calls := []stampCall{
		{0, 0, 1e-3}, {0, 2, 1},
		{1, 1, 2e-3}, {1, 2, -1},
		{2, 0, 1}, {2, 1, -1},
		// a[2][2] = 0
	}
	b := []complex128{0, 0, 5}
	x, err := solveCalls(3, calls, b)
	if err != nil {
		t.Fatal(err)
	}
	checkResidual(t, denseOf(3, calls), x, b, 1e-9)
}

func TestSingular(t *testing.T) {
	calls := []stampCall{{0, 0, 1}, {1, 0, 2}}
	if _, err := solveCalls(2, calls, []complex128{1, 1}); err == nil {
		t.Fatal("expected singular")
	}
}

func TestEmptyMatrixSingular(t *testing.T) {
	if _, err := solveCalls(3, nil, []complex128{1, 1, 1}); err == nil {
		t.Fatal("expected singular")
	}
}

// Property: sparse solve agrees with dense solve on random sparse
// diagonally dominant systems.
func TestAgreesWithDenseQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(25)
		var calls []stampCall
		for i := 0; i < n; i++ {
			sum := 0.0
			// A few off-diagonal entries per row.
			k := 1 + r.Intn(4)
			for t := 0; t < k; t++ {
				j := r.Intn(n)
				if j == i {
					continue
				}
				v := complex(r.NormFloat64(), r.NormFloat64())
				calls = append(calls, stampCall{i, j, v})
				sum += cmplx.Abs(v)
			}
			calls = append(calls, stampCall{i, i, complex(sum+1+r.Float64(), r.NormFloat64())})
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		xs, err := solveCalls(n, calls, b)
		if err != nil {
			return false
		}
		xd, err := linalg.CSolveDense(denseOf(n, calls), b)
		if err != nil {
			return false
		}
		for i := range xs {
			if cmplx.Abs(xs[i]-xd[i]) > 1e-8*(1+cmplx.Abs(xd[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestFactorReuseMultiRHS(t *testing.T) {
	n := 10
	r := rand.New(rand.NewSource(5))
	var calls []stampCall
	for i := 0; i < n; i++ {
		calls = append(calls,
			stampCall{i, i, complex(5+r.Float64(), r.NormFloat64())},
			stampCall{i, (i + 1) % n, complex(r.NormFloat64(), 0)})
	}
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	nm := sym.NewNumeric()
	if err := nm.Refactor(vals.Values()); err != nil {
		t.Fatal(err)
	}
	dm := denseOf(n, calls)
	x := make([]complex128, n)
	for k := 0; k < n; k++ {
		b := make([]complex128, n)
		b[k] = 1
		if err := nm.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		checkResidual(t, dm, x, b, 1e-10)
	}
	if sym.FillIn() <= 0 {
		t.Error("FillIn should be positive")
	}
}

func TestTridiagonalLowFill(t *testing.T) {
	// A tridiagonal system should factor with O(n) fill.
	n := 200
	var calls []stampCall
	for i := 0; i < n; i++ {
		calls = append(calls, stampCall{i, i, 4})
		if i > 0 {
			calls = append(calls, stampCall{i, i - 1, -1})
		}
		if i < n-1 {
			calls = append(calls, stampCall{i, i + 1, -1})
		}
	}
	pat, vals := compile(n, calls)
	nm, err := pat.Repivot(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	if fill := nm.sym.FillIn(); fill > 4*n {
		t.Errorf("fill %d exceeds 4n = %d", fill, 4*n)
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]complex128, n)
	if err := nm.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	checkResidual(t, denseOf(n, calls), x, b, 1e-10)
}

// TestZeroPreservesStructure: Begin clears the values for a new stamping
// pass but keeps the frozen structure, so the next pass lands in the same
// slots.
func TestZeroPreservesStructure(t *testing.T) {
	pat, vals := compile(2, []stampCall{{0, 1, 3}})
	vals.Begin()
	for _, v := range vals.Values() {
		if v != 0 {
			t.Fatal("Begin should clear entries")
		}
	}
	vals.Add(0, 1, 2)
	if vals.Drift() {
		t.Error("restamp after Begin drifted")
	}
	if got := vals.Values()[pat.SlotOf(0, 1)]; got != 2 {
		t.Errorf("reuse after Begin failed: (0,1) = %v", got)
	}
}

func TestRHSLengthMismatch(t *testing.T) {
	pat, vals := compile(2, []stampCall{{0, 0, 1}, {1, 1, 1}})
	nm, err := pat.Repivot(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.SolveInto(make([]complex128, 2), []complex128{1}); err == nil {
		t.Error("expected error")
	}
}

// TestRepivotAfterCollapse: the fallback the sweep takes when a frozen
// pivot order collapses — Refactor rejects the values, Repivot on the
// same values chooses a fresh order and solves them correctly.
func TestRepivotAfterCollapse(t *testing.T) {
	// Analyzed with a dominant (0,0); at the second value set that entry
	// vanishes and row 1 must pivot column 0 instead.
	at := func(d complex128) []stampCall {
		return []stampCall{{0, 0, d}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}}
	}
	pat, vals := compile(2, at(10))
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	nm := sym.NewNumeric()
	calls := at(1e-20)
	vals.Begin()
	replay(vals, calls)
	if err := nm.Refactor(vals.Values()); err == nil {
		t.Fatal("refactor accepted a collapsed pivot")
	}
	re, err := pat.Repivot(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	b := []complex128{1, 2}
	x := make([]complex128, 2)
	if err := re.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	checkResidual(t, denseOf(2, calls), x, b, 1e-12)
}
