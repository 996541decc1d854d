// Package sparse implements the sparse complex LU solver for MNA systems.
//
// A stamping pass is recorded once into a frozen CSR Pattern (duplicate
// entries sum, matching MNA stamping) and split into the real arrays of
// its pencil G + jωC, so each frequency's values are one fill over the
// nonzeros (Pencil.FillInto); Pattern.Analyze then factors them
// with row-wise Gaussian elimination using threshold partial pivoting with
// a Markowitz-style tie-break (among numerically acceptable pivots, prefer
// the sparsest row) to limit fill-in, and records the pivot order and fill
// pattern so every later frequency only refills values (refactor.go). One
// factorization serves many right-hand sides, which is how the all-nodes
// stability sweep amortizes the cost of a frequency point across every
// injection node.
package sparse

import (
	"fmt"

	"acstab/internal/acerr"
)

// ErrSingular is returned when no usable pivot exists. It wraps
// acerr.ErrSingularMatrix so the condition is recognizable across the
// public API boundary via errors.Is.
var ErrSingular = fmt.Errorf("sparse: %w", acerr.ErrSingularMatrix)

// pivotThreshold is the relative-magnitude threshold for accepting a pivot
// candidate. Sparsity is used only as a tie-break among candidates whose
// magnitude is within this factor of the column maximum. Small thresholds
// (the classic Sparse 1.3 default of 0.1) permit elimination multipliers up
// to 1/threshold, which compounds across deep ladder/chain networks into
// catastrophic growth (observed: ~6.6 per stage on an 80-stage RC ladder).
// Keeping the threshold near 1 makes the factorization behave like partial
// pivoting — multipliers stay near 1 and diagonally dominant MNA systems
// factor with essentially no element growth — while still letting the
// sparser of two equal-magnitude candidates win.
const pivotThreshold = 0.99

// singularTol is the relative pivot threshold for declaring a matrix
// numerically singular: a pivot column whose best remaining candidate is
// below this fraction of its scale cannot produce meaningful solution
// digits in a float64 factorization. The scale is min(column max, pivot
// row max) over the *original* matrix — a pivot must be collapsed
// relative to both its own column and its own row to count as singular.
// Either test alone misfires on honestly ill-scaled MNA systems: a ±1
// voltage-source pivot is perfectly usable even when a transistor
// conductance elsewhere in the column dwarfs it, and a lone gmin
// conductance is fine despite being tiny in absolute terms.
const singularTol = 1e-13
