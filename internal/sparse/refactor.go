package sparse

// Two-phase factorization: the sparsity pattern of an AC sweep's matrix
// (the union of the G and C stamps) is identical at every frequency, so
// the pivot-order search and fill-in analysis need to run only once per
// sweep. This file implements that split:
//
//   - Recorder captures the (i,j,value) call stream of one stamping pass
//     and freezes its structure into a Pattern: a CSR layout plus a
//     per-call slot table.
//   - Pattern.Pencil scatters a pass recorded at ω = 1 into real arrays
//     G = Re and C = Im per CSR slot. MNA stamping is affine in ω, so
//     Pencil.FillInto then writes A(ω) = G + jωC for any frequency in one
//     loop over nnz: no stamping pass, no maps, no allocations. Pencil
//     is also where the recorded call stream is checked against the
//     pattern, once per pass instead of once per frequency.
//   - Pattern.Analyze runs the threshold/Markowitz pivot search once and
//     records the elimination order and the exact fill-in pattern of L
//     and U as index arrays (Symbolic).
//   - Symbolic.NewNumeric allocates the value arrays and workspaces once;
//     Numeric.Refactor refills them for new values (a fixed-pivot-order
//     Gilbert–Peierls pass) and Numeric.SolveInto back-substitutes in
//     place. Both are allocation-free, which keeps the per-frequency
//     inner loop of the all-nodes sweep out of the garbage collector.
//
// Reusing a pivot order chosen at one frequency at another is safe for
// the diagonally dominant MNA systems this repo sweeps, but it is guarded
// anyway: Refactor rejects pivots that collapse relative to their row
// scale, and the caller re-pivots the same values with Pattern.Repivot.

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// FNV-1a parameters for the structural checksum of a stamp-call stream.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Pattern is the frozen structure of a stamped matrix: the CSR layout of
// every position one assembly pass touches, the recorded order of Add
// calls mapping each call to its slot in a value array, and a structural
// checksum of the call stream.
type Pattern struct {
	n      int
	rowPtr []int32 // len n+1
	col    []int32 // len nnz; ascending within each row
	seq    []int32 // Add-call index -> slot in the value array
	sig    uint64  // FNV-1a over the (i,j) call stream
}

// N returns the matrix dimension.
func (p *Pattern) N() int { return p.n }

// Checksum returns the FNV-1a structural checksum of the recorded stamp
// stream. Two circuits whose assembly passes issue the same (i, j) call
// sequence share a checksum, and a circuit whose stamping changed does
// not — which makes it the content fingerprint the worker's
// compiled-system cache validates entries against.
func (p *Pattern) Checksum() uint64 { return p.sig }

// NNZ returns the number of distinct structural positions, closure
// diagonals (Recorder.CloseDiagonal) included.
func (p *Pattern) NNZ() int { return len(p.col) }

// SlotOf returns the value-array slot of structural position (i, j), or -1
// when the pattern has no entry there. It lets tests and diagnostics
// address individual entries of a value array without replaying a stamp
// pass.
func (p *Pattern) SlotOf(i, j int) int {
	if i < 0 || i >= p.n {
		return -1
	}
	for s := p.rowPtr[i]; s < p.rowPtr[i+1]; s++ {
		if p.col[s] == int32(j) {
			return int(s)
		}
	}
	return -1
}

// Recorder captures one stamping pass. It implements the same Add
// interface the stamping code targets. Compile freezes the (i,j) stream
// into a Pattern; Pattern.Pencil scatters the values. Record exactly one
// pass.
type Recorder struct {
	n     int
	calls []int64      // i*n + j per Add call, in call order
	vals  []complex128 // value per Add call
	close int          // unknowns 0..close-1 get a structural diagonal
}

// NewRecorder returns a Recorder for an n-by-n system.
func NewRecorder(n int) *Recorder { return &Recorder{n: n} }

// CloseDiagonal makes Compile give each of the unknowns 0..m-1 a
// structural diagonal slot even when no call stamps it (an MNA node
// touched only by a voltage source and an inductor): (A⁻¹)_jj lies on the
// filled pattern only when A_jj is structurally present, and the
// selected-inverse kernel reads it there. The closure slots are never
// stamped, so they hold exact zeros and leave the call stream and its
// checksum unchanged. Close only the unknowns whose inverse diagonal is
// wanted: a closure slot on a voltage-source branch row seeds structural
// fill along the whole chain behind it and can move the pivot order.
func (r *Recorder) CloseDiagonal(m int) {
	if m > r.n {
		m = r.n
	}
	r.close = m
}

// Add records one stamp call.
func (r *Recorder) Add(i, j int, v complex128) {
	r.calls = append(r.calls, int64(i)*int64(r.n)+int64(j))
	r.vals = append(r.vals, v)
}

// Compile freezes the recorded call stream into a Pattern.
func (r *Recorder) Compile() *Pattern {
	n := r.n
	p := &Pattern{n: n, seq: make([]int32, len(r.calls)), sig: fnvOffset}
	// Dedup positions and sort them row-major for the CSR layout, closure
	// diagonals (CloseDiagonal) included.
	keys := append(make([]int64, 0, len(r.calls)+r.close), r.calls...)
	for i := 0; i < r.close; i++ {
		keys = append(keys, int64(i)*int64(n)+int64(i))
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			uniq = append(uniq, k)
		}
	}
	p.rowPtr = make([]int32, n+1)
	p.col = make([]int32, len(uniq))
	slotOf := make(map[int64]int32, len(uniq))
	for s, k := range uniq {
		i, j := int(k/int64(n)), int(k%int64(n))
		p.rowPtr[i+1]++
		p.col[s] = int32(j)
		slotOf[k] = int32(s)
	}
	for i := 0; i < n; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	for t, k := range r.calls {
		p.seq[t] = slotOf[k]
		p.sig = (p.sig ^ uint64(k)) * fnvPrime
	}
	return p
}

// Pencil is the affine split A(ω) = G + jωC of one stamping pass over a
// Pattern: real arrays G and C aligned with the pattern's value slots.
type Pencil struct {
	pat  *Pattern
	g, c []float64
}

// Pencil scatters the pass r recorded at ω = 1 into the pattern's slots:
// G = Re and C = Im of every slot's accumulated value. It returns nil when
// r's call stream is not exactly the one the pattern was compiled from (an
// extra, missing or moved call): r then describes another matrix
// structure and needs a pattern of its own.
func (p *Pattern) Pencil(r *Recorder) *Pencil {
	if r.n != p.n || len(r.calls) != len(p.seq) {
		return nil
	}
	pc := &Pencil{pat: p, g: make([]float64, len(p.col)), c: make([]float64, len(p.col))}
	n := int64(p.n)
	for t, k := range r.calls {
		s, i := p.seq[t], k/n
		if p.col[s] != int32(k%n) || s < p.rowPtr[i] || s >= p.rowPtr[i+1] {
			return nil
		}
		pc.g[s] += real(r.vals[t])
		pc.c[s] += imag(r.vals[t])
	}
	return pc
}

// Pattern returns the pattern the pencil's slots belong to.
func (pc *Pencil) Pattern() *Pattern { return pc.pat }

// FillInto writes A(ω) = G + jωC into vals, one entry per slot.
func (pc *Pencil) FillInto(vals []complex128, omega float64) {
	g, c := pc.g, pc.c[:len(pc.g)]
	vals = vals[:len(g)]
	for s := range g {
		vals[s] = complex(g[s], omega*c[s])
	}
}

// Each calls fn with every structural position and its G and C entries,
// in row-major order.
func (pc *Pencil) Each(fn func(i, j int, g, c float64)) {
	p := pc.pat
	for i := 0; i < p.n; i++ {
		for s := p.rowPtr[i]; s < p.rowPtr[i+1]; s++ {
			fn(i, int(p.col[s]), pc.g[s], pc.c[s])
		}
	}
}

// Symbolic is the value-independent half of a factorization: the pivot
// order chosen by one full threshold/Markowitz analysis and the complete
// fill-in pattern of L and U as CSR-style index arrays. It is immutable
// after Analyze and safe to share read-only across worker goroutines;
// each worker owns its Numeric.
type Symbolic struct {
	pat  *Pattern
	n    int
	perm []int32 // elimination step -> original row index
	// L pattern grouped by target step: for step k, lsrc[lptr[k]:lptr[k+1]]
	// lists the source steps that update row k, in ascending order.
	lptr []int32
	lsrc []int32
	// U pattern: for step k, ucol[uptr[k]:uptr[k+1]] lists the surviving
	// columns of pivot row k (all > k), ascending. Columns are eliminated
	// in natural order, so step k pivots column k.
	uptr []int32
	ucol []int32
}

// FillIn returns the number of L multipliers plus U entries (diagonal
// included), a measure of factorization fill.
func (s *Symbolic) FillIn() int { return len(s.lsrc) + len(s.ucol) + s.n }

// Analyze runs the one-time pivot search and fill analysis on the pattern
// with the given values (one frequency point of the sweep). The
// pivot choice is numeric — threshold partial pivoting with the Markowitz
// sparsity tie-break — but the recorded elimination
// order and fill pattern are value-independent: fill positions are kept
// even when a value happens to cancel, so the pattern is closed under the
// elimination at every other frequency.
func (p *Pattern) Analyze(vals []complex128) (*Symbolic, error) {
	n := p.n
	if len(vals) != len(p.col) {
		return nil, fmt.Errorf("sparse: values length %d, want %d", len(vals), len(p.col))
	}
	// Working rows as maps (one-time cost; the numeric phase never sees
	// them). Structural entries are kept even when numerically zero.
	work := make([]map[int32]complex128, n)
	colScale := make([]float64, n)
	rowScale := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make(map[int32]complex128, p.rowPtr[i+1]-p.rowPtr[i])
		for idx := p.rowPtr[i]; idx < p.rowPtr[i+1]; idx++ {
			c := p.col[idx]
			row[c] = vals[idx]
			a := cmplx.Abs(vals[idx])
			if a > colScale[c] {
				colScale[c] = a
			}
			if a > rowScale[i] {
				rowScale[i] = a
			}
		}
		work[i] = row
	}
	sym := &Symbolic{
		pat:  p,
		n:    n,
		perm: make([]int32, n),
		lptr: make([]int32, n+1),
		uptr: make([]int32, n+1),
	}
	// lrows[k] collects the source steps updating the row eliminated at
	// step k; filled while rows are still identified by original index.
	lrows := make([][]int32, n)
	eliminated := make([]bool, n)
	stepOf := make([]int32, n) // original row -> elimination step
	for k := 0; k < n; k++ {
		col := int32(k)
		best := -1
		bestLen := 0
		maxMag := 0.0
		maxRow := -1
		for i := 0; i < n; i++ {
			if eliminated[i] {
				continue
			}
			if v, ok := work[i][col]; ok {
				if a := cmplx.Abs(v); a > maxMag {
					maxMag, maxRow = a, i
				}
			}
		}
		// Singular only when collapsed against both its column and its
		// pivot row: see singularTol.
		scale := colScale[col]
		if maxRow >= 0 && rowScale[maxRow] < scale {
			scale = rowScale[maxRow]
		}
		if maxMag <= singularTol*scale {
			return nil, fmt.Errorf("%w (column %d)", ErrSingular, col)
		}
		for i := 0; i < n; i++ {
			if eliminated[i] {
				continue
			}
			v, ok := work[i][col]
			if !ok || cmplx.Abs(v) < pivotThreshold*maxMag {
				continue
			}
			if best == -1 || len(work[i]) < bestLen {
				best, bestLen = i, len(work[i])
			}
		}
		piv := best
		eliminated[piv] = true
		sym.perm[k] = int32(piv)
		stepOf[piv] = int32(k)
		pivRow := work[piv]
		pd := pivRow[col]
		if pd == 0 {
			// Structural entry with a cancelled value: elimination still
			// needs the position, but the analysis values cannot divide by
			// it. Threshold pivoting never selects it while a nonzero
			// candidate exists, so reaching here means the column is
			// numerically dead at the analysis frequency.
			return nil, fmt.Errorf("%w (column %d)", ErrSingular, col)
		}
		for i := 0; i < n; i++ {
			if eliminated[i] {
				continue
			}
			v, ok := work[i][col]
			if !ok {
				continue
			}
			mult := v / pd
			delete(work[i], col)
			for c, pv := range pivRow {
				if c == col {
					continue
				}
				// Keep fill positions even when the update cancels, so the
				// recorded pattern is valid for every value set.
				work[i][c] = work[i][c] - mult*pv
			}
			lrows[i] = append(lrows[i], int32(k))
		}
		// Freeze the surviving columns as the U row of step k.
		ur := make([]int32, 0, len(pivRow)-1)
		for c := range pivRow {
			if c != col {
				ur = append(ur, c)
			}
		}
		sort.Slice(ur, func(a, b int) bool { return ur[a] < ur[b] })
		sym.uptr[k+1] = sym.uptr[k] + int32(len(ur))
		sym.ucol = append(sym.ucol, ur...)
	}
	// Regroup the L pattern by elimination step of the target row. Source
	// steps were appended in ascending order, which is exactly the order
	// the numeric refactorization must apply them in.
	for k := 0; k < n; k++ {
		lr := lrows[sym.perm[k]]
		sym.lptr[k+1] = sym.lptr[k] + int32(len(lr))
		sym.lsrc = append(sym.lsrc, lr...)
	}
	return sym, nil
}

// refactorPivTol rejects a refactorization pivot that collapsed below
// this fraction of its row's input magnitude. The pivot order was chosen
// at a different frequency; when the values at the current frequency make
// that order numerically unusable, Refactor reports ErrSingular and the
// caller re-pivots the same values with Repivot. Both magnitudes are ℓ1
// moduli (cabs1): within √2 of |z|, which is all a collapse threshold
// needs, and free of the Hypot call per stamped entry that would
// otherwise dominate the refill of small systems.
const refactorPivTol = 1e-12

// Repivot runs a fresh pivot search on vals (Analyze) and returns the
// factorization of those values over the new pivot order: the one-off
// full factorization a sweep takes when the frozen order collapses at one
// frequency or a residual breach escalates past refinement. The pivots
// were just chosen on these very values, so the refill rejects only a
// zero or non-finite pivot, not one Refactor's collapse guard would.
func (p *Pattern) Repivot(vals []complex128) (*Numeric, error) {
	sym, err := p.Analyze(vals)
	if err != nil {
		return nil, err
	}
	nm := sym.NewNumeric()
	if err := nm.refill(vals, 0); err != nil {
		return nil, err
	}
	return nm, nil
}

// Numeric is a numeric factorization over a fixed Symbolic pattern. All
// storage is allocated once; Refactor and SolveInto never allocate. A
// Numeric is not safe for concurrent use — give each worker its own.
type Numeric struct {
	sym  *Symbolic
	lval []complex128 // aligned with sym.lsrc
	uval []complex128 // aligned with sym.ucol
	// udinv holds the reciprocals of the U diagonal: the substitution
	// loops multiply by them instead of dividing, which keeps the slow
	// runtime complex-division path out of the per-node inner loop.
	udinv []complex128
	w     []complex128 // dense scatter row, all-zero between calls
	// growth is the pivot-growth factor of the last successful Refactor:
	// max over steps of |u_kk| / (input magnitude of the pivot row). Both
	// factors are already computed by the refill loop, so tracking it is
	// free; see PivotGrowth.
	growth float64
}

// NewNumeric allocates the numeric storage for the pattern.
func (s *Symbolic) NewNumeric() *Numeric {
	return &Numeric{
		sym:   s,
		lval:  make([]complex128, len(s.lsrc)),
		uval:  make([]complex128, len(s.ucol)),
		udinv: make([]complex128, s.n),
		w:     make([]complex128, s.n),
	}
}

// Refactor refills the factorization from a value array over the pattern
// (a Pencil fill). It replays the recorded elimination —
// no pivot search, no maps, no allocations: one Gilbert–Peierls pass per
// row over the precomputed fill pattern. On a pivot failure the numeric
// state is invalid and the error wraps acerr.ErrSingularMatrix; the
// caller should re-pivot the values with Pattern.Repivot.
func (nm *Numeric) Refactor(vals []complex128) error {
	return nm.refill(vals, refactorPivTol)
}

// refill is Refactor with the collapsed-pivot tolerance as a parameter:
// a pivot at or below pivTol times its row's input magnitude (or a
// non-finite one) is rejected.
func (nm *Numeric) refill(vals []complex128, pivTol float64) error {
	sym, p := nm.sym, nm.sym.pat
	if len(vals) != len(p.col) {
		return fmt.Errorf("sparse: values length %d, want %d", len(vals), len(p.col))
	}
	n := sym.n
	w := nm.w
	growth := 0.0
	for k := 0; k < n; k++ {
		row := sym.perm[k]
		scale := 0.0
		for idx := p.rowPtr[row]; idx < p.rowPtr[row+1]; idx++ {
			w[p.col[idx]] = vals[idx]
			if a := cabs1(vals[idx]); a > scale {
				scale = a
			}
		}
		for t := sym.lptr[k]; t < sym.lptr[k+1]; t++ {
			s := sym.lsrc[t]
			mult := w[s] * nm.udinv[s] // pivot column of step s is s
			w[s] = 0
			nm.lval[t] = mult
			if mult != 0 {
				for ui := sym.uptr[s]; ui < sym.uptr[s+1]; ui++ {
					w[sym.ucol[ui]] -= mult * nm.uval[ui]
				}
			}
		}
		d := w[k]
		w[k] = 0
		for ui := sym.uptr[k]; ui < sym.uptr[k+1]; ui++ {
			c := sym.ucol[ui]
			nm.uval[ui] = w[c]
			w[c] = 0
		}
		ad := cabs1(d)
		if !(ad > pivTol*scale) || math.IsInf(ad, 0) {
			// !(x > y) also catches NaN. Scrub the scatter row so the next
			// Refactor starts from the all-zero invariant.
			for i := range w {
				w[i] = 0
			}
			return fmt.Errorf("%w (refactor pivot %d collapsed)", ErrSingular, k)
		}
		if scale > 0 {
			if g := ad / scale; g > growth {
				growth = g
			}
		}
		nm.udinv[k] = 1 / d
	}
	nm.growth = growth
	return nil
}

// SolveInto solves A x = b into the caller's x, in place: no allocations.
// b is unchanged and must not alias x.
func (nm *Numeric) SolveInto(x, b []complex128) error {
	sym := nm.sym
	n := sym.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("sparse: rhs/solution length %d/%d, want %d", len(b), len(x), n)
	}
	for k := 0; k < n; k++ {
		x[k] = b[sym.perm[k]]
	}
	// Forward substitution in elimination order (unit lower triangular).
	for k := 0; k < n; k++ {
		s := x[k]
		for t := sym.lptr[k]; t < sym.lptr[k+1]; t++ {
			if m := nm.lval[t]; m != 0 {
				s -= m * x[sym.lsrc[t]]
			}
		}
		x[k] = s
	}
	// Back substitution; U columns of step k are all > k, so overwriting
	// x[k] never clobbers a value a later (lower-index) step still needs.
	for k := n - 1; k >= 0; k-- {
		s := x[k]
		for ui := sym.uptr[k]; ui < sym.uptr[k+1]; ui++ {
			s -= nm.uval[ui] * x[sym.ucol[ui]]
		}
		x[k] = s * nm.udinv[k]
	}
	return checkFinite(x)
}

// checkFinite returns ErrSingular when the solution contains a non-finite
// component — the downstream stability analysis must never see Inf/NaN
// masquerading as an impedance. The common all-finite case is a tight
// branch-free accumulation: v-v is exactly 0 for finite v and NaN for
// Inf/NaN, so one bad component poisons the accumulator. Only on failure
// does the slow per-component scan run to name the offending index.
func checkFinite(x []complex128) error {
	acc := 0.0
	for _, v := range x {
		re, im := real(v), imag(v)
		acc += (re - re) + (im - im)
	}
	if acc == 0 {
		return nil
	}
	for i, v := range x {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return fmt.Errorf("%w (non-finite solution component %d)", ErrSingular, i)
		}
	}
	return fmt.Errorf("%w (non-finite solution)", ErrSingular)
}
