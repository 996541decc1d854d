package sparse

// Frequency-batched refactorization: an AC sweep refills the same frozen
// Gilbert–Peierls pattern once per frequency, so the index arrays (perm,
// lptr/lsrc, uptr/ucol, the CSR row layout) are streamed from memory K
// times for K frequencies while only the complex values change. A
// NumericBatch refills K factorizations in one pass over the pattern: the
// value arrays are lane-strided (structure-of-arrays — entry t of lane j
// lives at t*K+j), the scatter row is K wide, and every index decode and
// bounds check is amortized across the K lanes.
//
// Per lane the arithmetic is executed in exactly the order the serial
// Numeric.Refactor uses — same loads, same multiplier-zero skips, same
// update order — so each lane's factors, and the diagonal solves computed
// from them, are bitwise identical to a serial Refactor of the same
// values. Batching is therefore a pure throughput optimization: changing
// the batch size can never change a result.
//
// A lane whose pivot collapses (the same refactorPivTol test as the
// serial path) is marked not-OK and the caller re-pivots that frequency
// with Pattern.Repivot, exactly like the serial fallback. Dead lanes keep
// computing: the elimination's clear-as-consumed discipline is value-
// independent (the pattern is closed under the elimination), so even a
// lane full of Inf/NaN leaves the K-wide scatter row all-zero for the
// next block.

import (
	"fmt"
	"math"
)

// NumericBatch is a block of up to K numeric factorizations over one
// Symbolic pattern, refilled together. Storage is allocated once; Refactor
// and SolveDiagLanesInto never allocate. Not safe for concurrent use.
type NumericBatch struct {
	sym   *Symbolic
	k     int          // lane capacity (stride of the value arrays)
	m     int          // lanes filled by the last Refactor
	lval  []complex128 // lane-strided, aligned with sym.lsrc
	uval  []complex128 // lane-strided, aligned with sym.ucol
	udinv []complex128 // lane-strided reciprocal U diagonal
	w     []complex128 // K-wide scatter row, all-zero between calls
	d     []complex128 // per-lane pivot / accumulator scratch
	scale []float64    // per-lane row input magnitude
	ok    []bool
	grow  []float64
}

// NewNumericBatch allocates a K-lane batch for the pattern. K must be at
// least 1; typical sweeps use 4-16 (wide enough to amortize the index
// stream, small enough to keep the K-wide scatter row in cache).
func (s *Symbolic) NewNumericBatch(k int) *NumericBatch {
	if k < 1 {
		k = 1
	}
	return &NumericBatch{
		sym:   s,
		k:     k,
		lval:  make([]complex128, len(s.lsrc)*k),
		uval:  make([]complex128, len(s.ucol)*k),
		udinv: make([]complex128, s.n*k),
		w:     make([]complex128, s.n*k),
		d:     make([]complex128, k),
		scale: make([]float64, k),
		ok:    make([]bool, k),
		grow:  make([]float64, k),
	}
}

// K returns the lane capacity (and the stride of SolveDiagLanesInto's
// destination layout).
func (nb *NumericBatch) K() int { return nb.k }

// Lanes returns the number of lanes filled by the last Refactor.
func (nb *NumericBatch) Lanes() int { return nb.m }

// LaneOK reports whether lane j's last Refactor kept every pivot above the
// collapse threshold. Factors of a failed lane are garbage; the caller
// must re-solve that frequency via Pattern.Repivot.
func (nb *NumericBatch) LaneOK(j int) bool { return j >= 0 && j < nb.m && nb.ok[j] }

// LaneGrowth returns lane j's pivot-growth factor (max |u_kk| over the
// row's input magnitude), the same measure Numeric.PivotGrowth reports.
func (nb *NumericBatch) LaneGrowth(j int) float64 { return nb.grow[j] }

// Refactor refills all len(lanes) factorizations from freshly stamped
// value arrays (each a Vals.Values with Drift() false). One pass over the
// pattern serves every lane; per lane the result is bitwise identical to
// a serial Numeric.Refactor of the same values. Lane failures are
// per-lane (LaneOK), not errors; the error return covers only shape
// mismatches.
func (nb *NumericBatch) Refactor(lanes [][]complex128) error {
	sym, p := nb.sym, nb.sym.pat
	m := len(lanes)
	if m < 1 || m > nb.k {
		return fmt.Errorf("sparse: batch of %d lanes, capacity %d", m, nb.k)
	}
	for j, vals := range lanes {
		if len(vals) != len(p.col) {
			return fmt.Errorf("sparse: lane %d values length %d, want %d", j, len(vals), len(p.col))
		}
	}
	K := nb.k
	n := sym.n
	w := nb.w
	for j := 0; j < m; j++ {
		nb.ok[j] = true
		nb.grow[j] = 0
	}
	for k := 0; k < n; k++ {
		row := sym.perm[k]
		for j := 0; j < m; j++ {
			nb.scale[j] = 0
		}
		for idx := p.rowPtr[row]; idx < p.rowPtr[row+1]; idx++ {
			cK := int(p.col[idx]) * K
			for j := 0; j < m; j++ {
				v := lanes[j][idx]
				w[cK+j] = v
				if a := cabs1(v); a > nb.scale[j] {
					nb.scale[j] = a
				}
			}
		}
		for t := sym.lptr[k]; t < sym.lptr[k+1]; t++ {
			s := sym.lsrc[t]
			sK := int(s) * K
			tK := int(t) * K
			for j := 0; j < m; j++ {
				mult := w[sK+j] * nb.udinv[sK+j] // pivot column of step s is s
				w[sK+j] = 0
				nb.lval[tK+j] = mult
			}
			for ui := sym.uptr[s]; ui < sym.uptr[s+1]; ui++ {
				cK := int(sym.ucol[ui]) * K
				uiK := int(ui) * K
				for j := 0; j < m; j++ {
					if mult := nb.lval[tK+j]; mult != 0 {
						w[cK+j] -= mult * nb.uval[uiK+j]
					}
				}
			}
		}
		kK := k * K
		for j := 0; j < m; j++ {
			nb.d[j] = w[kK+j]
			w[kK+j] = 0
		}
		for ui := sym.uptr[k]; ui < sym.uptr[k+1]; ui++ {
			cK := int(sym.ucol[ui]) * K
			uiK := int(ui) * K
			for j := 0; j < m; j++ {
				nb.uval[uiK+j] = w[cK+j]
				w[cK+j] = 0
			}
		}
		for j := 0; j < m; j++ {
			d := nb.d[j]
			if nb.ok[j] {
				ad := cabs1(d)
				if !(ad > refactorPivTol*nb.scale[j]) || math.IsInf(ad, 0) {
					// Same test as the serial path; !(x > y) also catches NaN.
					// The lane keeps computing so its scatter stripe stays on
					// the clear-as-consumed discipline, but its factors are
					// dead from here on.
					nb.ok[j] = false
				} else if s := nb.scale[j]; s > 0 {
					if g := ad / s; g > nb.grow[j] {
						nb.grow[j] = g
					}
				}
			}
			nb.udinv[kK+j] = 1 / d
		}
	}
	nb.m = m
	return nil
}

// ExtractLane copies lane j's factors into a serial Numeric over the same
// Symbolic, so the full per-point machinery (SolveInto for residual
// probes, CondEst1, refinement) can run against a batch-refilled
// factorization. The copy is exact, so the extracted Numeric behaves
// bitwise identically to a serial Refactor of the lane's values.
func (nb *NumericBatch) ExtractLane(nm *Numeric, j int) error {
	if nm.sym != nb.sym {
		return fmt.Errorf("sparse: numeric was built for a different symbolic analysis")
	}
	if j < 0 || j >= nb.m || !nb.ok[j] {
		return fmt.Errorf("sparse: lane %d not available (m=%d)", j, nb.m)
	}
	K := nb.k
	for t := range nm.lval {
		nm.lval[t] = nb.lval[t*K+j]
	}
	for u := range nm.uval {
		nm.uval[u] = nb.uval[u*K+j]
	}
	for i := range nm.udinv {
		nm.udinv[i] = nb.udinv[i*K+j]
	}
	nm.growth = nb.grow[j]
	return nil
}

// SolveDiagLanesInto computes the driving-point entries for every node of
// the plan across all filled lanes: dst[i*K+j] = (A_j⁻¹)_{kk} for plan
// node i in lane j, with K = nb.K(). The reach-restricted forward and
// backward passes visit each plan row once for all lanes together. Dead
// lanes' entries are garbage (check LaneOK); finiteness is enforced for
// OK lanes only, matching the serial kernel's contract.
func (nb *NumericBatch) SolveDiagLanesInto(dst []complex128, plan *DiagPlan) error {
	sym := nb.sym
	if plan == nil || plan.sym != sym {
		return fmt.Errorf("sparse: diag plan was built for a different symbolic analysis")
	}
	K, m := nb.k, nb.m
	if len(dst) < len(plan.nodes)*K {
		return fmt.Errorf("sparse: dst length %d, want %d", len(dst), len(plan.nodes)*K)
	}
	w := nb.w
	acc := nb.d
	for i := range plan.nodes {
		fs := plan.fstep[plan.fptr[i]:plan.fptr[i+1]]
		bs := plan.bstep[plan.bptr[i]:plan.bptr[i+1]]
		f0K := int(fs[0]) * K
		for j := 0; j < m; j++ {
			w[f0K+j] = 1
		}
		for _, t := range fs {
			tK := int(t) * K
			for j := 0; j < m; j++ {
				acc[j] = w[tK+j]
			}
			for idx := sym.lptr[t]; idx < sym.lptr[t+1]; idx++ {
				sK := int(sym.lsrc[idx]) * K
				idxK := int(idx) * K
				for j := 0; j < m; j++ {
					if lm := nb.lval[idxK+j]; lm != 0 {
						acc[j] -= lm * w[sK+j]
					}
				}
			}
			for j := 0; j < m; j++ {
				w[tK+j] = acc[j]
			}
		}
		for _, t := range bs {
			tK := int(t) * K
			for j := 0; j < m; j++ {
				acc[j] = w[tK+j]
			}
			for ui := sym.uptr[t]; ui < sym.uptr[t+1]; ui++ {
				cK := int(sym.ucol[ui]) * K
				uiK := int(ui) * K
				for j := 0; j < m; j++ {
					acc[j] -= nb.uval[uiK+j] * w[cK+j]
				}
			}
			for j := 0; j < m; j++ {
				w[tK+j] = acc[j] * nb.udinv[tK+j]
			}
		}
		nodeK := int(plan.nodes[i]) * K
		iK := i * K
		for j := 0; j < m; j++ {
			dst[iK+j] = w[nodeK+j]
		}
		for _, t := range fs {
			tK := int(t) * K
			for j := 0; j < m; j++ {
				w[tK+j] = 0
			}
		}
		for _, t := range bs {
			tK := int(t) * K
			for j := 0; j < m; j++ {
				w[tK+j] = 0
			}
		}
	}
	for j := 0; j < m; j++ {
		if !nb.ok[j] {
			continue
		}
		sum := 0.0
		for i := 0; i < len(plan.nodes); i++ {
			v := dst[i*K+j]
			re, im := real(v), imag(v)
			sum += (re - re) + (im - im)
		}
		if sum != 0 {
			return fmt.Errorf("%w (non-finite diagonal in lane %d)", ErrSingular, j)
		}
	}
	return nil
}
