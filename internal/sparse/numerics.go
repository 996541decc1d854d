package sparse

// Numerical-health instrumentation for the two-phase solver: per-point
// scale-relative residuals (one extra SpMV over the frozen CSR pattern,
// allocation-free), one-step iterative refinement reusing the existing
// factorization, a conjugate-transpose solve, and a Hager/Higham-style
// 1-norm condition estimate sampled on the existing Numeric.
//
// All modulus arithmetic here uses the ℓ1 modulus |re|+|im| (cabs1): it
// is within √2 of |z|, needs no Hypot, and is exactly what LAPACK's
// condition estimators use. A backward error or norm quoted by this file
// is therefore reproducible to a constant factor, which is all a health
// threshold needs.

import (
	"fmt"
	"math"
)

// cabs1 is the ℓ1 modulus |re(z)| + |im(z)|: an upper bound on |z| within
// a factor of √2, computed without Hypot.
func cabs1(z complex128) float64 {
	return math.Abs(real(z)) + math.Abs(imag(z))
}

// conj returns the complex conjugate without the cmplx import overhead of
// a function call chain (trivially inlinable).
func conj(z complex128) complex128 {
	return complex(real(z), -imag(z))
}

// ResidualInf fills r[i] = b[i] − (A·x)[i] over the frozen pattern and
// returns the scale-relative (normwise) backward error
//
//	η = ‖r‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)
//
// in one fused pass over the CSR values: the SpMV, the residual store, and
// all four norms come out of a single sweep with no allocations. η is the
// smallest relative perturbation of (A, b) for which x is an exact
// solution; a healthy double-precision solve sits near 1e-16. A zero
// denominator with a nonzero residual reports +Inf.
func (p *Pattern) ResidualInf(vals, x, b, r []complex128) (float64, error) {
	n := p.n
	if len(vals) != len(p.col) {
		return 0, fmt.Errorf("sparse: values length %d, want %d", len(vals), len(p.col))
	}
	if len(x) != n || len(b) != n || len(r) != n {
		return 0, fmt.Errorf("sparse: residual vector lengths %d/%d/%d, want %d", len(x), len(b), len(r), n)
	}
	var anorm, xnorm, bnorm, rnorm float64
	for i := 0; i < n; i++ {
		acc := b[i]
		rowSum := 0.0
		for idx := p.rowPtr[i]; idx < p.rowPtr[i+1]; idx++ {
			v := vals[idx]
			acc -= v * x[p.col[idx]]
			rowSum += cabs1(v)
		}
		r[i] = acc
		if rowSum > anorm {
			anorm = rowSum
		}
		if a := cabs1(acc); a > rnorm {
			rnorm = a
		}
		if a := cabs1(b[i]); a > bnorm {
			bnorm = a
		}
		if a := cabs1(x[i]); a > xnorm {
			xnorm = a
		}
	}
	return scaleRel(rnorm, anorm*xnorm+bnorm), nil
}

// scaleRel is the shared η = ‖r‖/denominator rule: an exactly-zero system
// has a perfect residual, a nonzero residual over a zero scale is +Inf.
func scaleRel(rnorm, den float64) float64 {
	if den == 0 {
		if rnorm == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return rnorm / den
}

// RefineInto applies one step of iterative refinement: given the residual
// r = b − A·x (from ResidualInf) it solves A·δ = r with this existing
// factorization and adds δ into x. d is len-n scratch for δ. Allocation
// free; one refinement step recovers essentially all the accuracy a
// backward-stable factorization can deliver when the residual came from
// accumulated roundoff rather than a genuinely lost pivot.
func (nm *Numeric) RefineInto(x, r, d []complex128) error {
	if err := nm.SolveInto(d, r); err != nil {
		return err
	}
	for i := range x {
		x[i] += d[i]
	}
	return checkFinite(x)
}

// PivotGrowth returns the growth factor recorded by the last successful
// Refactor: the maximum over elimination steps of |u_kk| relative to the
// input magnitude of the pivot row, both as ℓ1 moduli. Values near 1 mean the elimination
// amplified nothing; large values flag accumulated update growth — the
// classic early warning that the frozen pivot order is going stale at this
// frequency. Zero until a Refactor has run.
func (nm *Numeric) PivotGrowth() float64 { return nm.growth }

// SolveConjTransInto solves Aᴴ·x = b using the existing factorization:
// with A = Pᵀ·L·U the conjugate transpose factors as Uᴴ (lower triangular,
// diagonal conj(u_kk)) then Lᴴ (unit upper triangular) then the inverse
// permutation. It is the extra solve direction the Hager/Higham condition
// estimator needs; allocation-free through the scatter row, b unchanged,
// x must not alias b.
func (nm *Numeric) SolveConjTransInto(x, b []complex128) error {
	sym := nm.sym
	n := sym.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("sparse: rhs/solution length %d/%d, want %d", len(b), len(x), n)
	}
	w := nm.w
	copy(w, b)
	// Uᴴ·y = b: Uᴴ is lower triangular with row k's off-diagonals stored as
	// column k of U, so finalize y[k] ascending and scatter-subtract its
	// contribution down U row k.
	for k := 0; k < n; k++ {
		yk := w[k] * conj(nm.udinv[k])
		w[k] = yk
		if yk != 0 {
			for ui := sym.uptr[k]; ui < sym.uptr[k+1]; ui++ {
				w[sym.ucol[ui]] -= conj(nm.uval[ui]) * yk
			}
		}
	}
	// Lᴴ·z = y: unit upper triangular, so finalize z[k] descending and
	// scatter-subtract up the transposed multipliers.
	for k := n - 1; k >= 0; k-- {
		zk := w[k]
		if zk != 0 {
			for t := sym.lptr[k]; t < sym.lptr[k+1]; t++ {
				if m := nm.lval[t]; m != 0 {
					w[sym.lsrc[t]] -= conj(m) * zk
				}
			}
		}
	}
	// x = Pᵀ·z, restoring the scatter row's all-zero invariant as it
	// drains.
	for k := 0; k < n; k++ {
		x[sym.perm[k]] = w[k]
		w[k] = 0
	}
	return checkFinite(x)
}

// condEstIters bounds the Hager power iteration; it converges in 2–3
// steps on virtually every matrix (Higham 1988).
const condEstIters = 5

// CondEst1 estimates the 1-norm condition number κ₁(A) = ‖A‖₁·‖A⁻¹‖₁ by
// Hager/Higham power iteration on ‖A⁻¹‖₁: alternating solves with A and
// Aᴴ against sign vectors, at most condEstIters round trips. vals are the
// stamped CSR values this Numeric was refactored from (for ‖A‖₁); v and z
// are len-n scratch. The estimate is a lower bound on κ₁, reliable to a
// small constant factor — sample it a few times per sweep, not per point.
func (nm *Numeric) CondEst1(vals []complex128, v, z []complex128) (float64, error) {
	sym, p := nm.sym, nm.sym.pat
	n := sym.n
	if len(vals) != len(p.col) {
		return 0, fmt.Errorf("sparse: values length %d, want %d", len(vals), len(p.col))
	}
	if len(v) != n || len(z) != n {
		return 0, fmt.Errorf("sparse: scratch lengths %d/%d, want %d", len(v), len(z), n)
	}
	// ‖A‖₁ = max column abs-sum; the CSR stores rows, so accumulate into z
	// reused as a real-valued column-sum scratch.
	for j := range z {
		z[j] = 0
	}
	for i := 0; i < n; i++ {
		for idx := p.rowPtr[i]; idx < p.rowPtr[i+1]; idx++ {
			c := p.col[idx]
			z[c] = complex(real(z[c])+cabs1(vals[idx]), 0)
		}
	}
	anorm := 0.0
	for j := range z {
		if s := real(z[j]); s > anorm {
			anorm = s
		}
	}
	// Hager iteration for ‖A⁻¹‖₁.
	for i := range v {
		v[i] = complex(1/float64(n), 0)
	}
	est, prevJ := 0.0, -1
	for iter := 0; iter < condEstIters; iter++ {
		if err := nm.SolveInto(z, v); err != nil {
			return 0, err
		}
		est = 0
		for _, zi := range z {
			est += cabs1(zi)
		}
		// ξ = sign(z), then z = A⁻ᴴ·ξ; the largest component of z names
		// the next unit probe.
		for i, zi := range z {
			if a := cabs1(zi); a > 0 {
				v[i] = zi * complex(1/a, 0)
			} else {
				v[i] = 1
			}
		}
		if err := nm.SolveConjTransInto(z, v); err != nil {
			return 0, err
		}
		j, zmax := 0, 0.0
		for i, zi := range z {
			if a := cabs1(zi); a > zmax {
				zmax, j = a, i
			}
		}
		if j == prevJ {
			break
		}
		prevJ = j
		for i := range v {
			v[i] = 0
		}
		v[j] = 1
	}
	return anorm * est, nil
}
