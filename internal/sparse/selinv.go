package sparse

// Selected-inverse diagonal extraction: the all-nodes stability sweep only
// ever consumes driving-point impedances Z_jj = (A⁻¹)_jj, and computing
// them with one substitution per node costs O(n) rows per node on chain
// topologies — O(n²) per frequency. The Takahashi / Erisman–Tinney
// recurrence instead computes the entries of the inverse that lie on the
// filled pattern of (L+U)ᵀ in one backward sweep over the elimination
// steps, in O(nnz(L+U) + Σ_k |U_k|·|L_k|) — the same order as the
// refactorization itself.
//
// With PA = LU (row perm[k] eliminated at step k, columns in natural
// order so step k pivots column k), Z = U⁻¹L⁻¹ satisfies A⁻¹ = Z·P, hence
// (A⁻¹)_jj = Z[j, σ(j)] with σ = stepOf. Writing Ũ = D⁻¹U − I for the
// unit-scaled strict upper part, step k (from n−1 down to 0) computes
//
//	Z[k,r] = −Σ_c Ũ_kc·Z[c,r]      for every r with L[r,k] ≠ 0
//	Z[c,k] = −Σ_r Z[c,r]·L[r,k]     for every c with U[k,c] ≠ 0
//	Z[k,k] = 1/u_kk − Σ_c Ũ_kc·Z[c,k]
//
// Every Z[c,r] read there has c, r > k and lies on the pattern again (the
// symbolic analysis keeps cancelled fill, so the filled graph is closed
// under the elimination), so it was computed at an earlier step. A step
// with an empty L column or an empty U row has all-zero off-diagonal Z
// entries and Z[k,k] = 1/u_kk for every value set, so only the steps with
// both take part in the sweep — on block-structured circuits that is a
// small minority. The (c, r) lookups are value-independent: SelInv
// resolves them once per Symbolic into flat int32 gather slots, and each
// frequency then runs the recurrence allocation-free over a Z scratch.

import (
	"fmt"
	"math"
	"sort"
)

// SelInv is the frozen gather schedule of the selected-inverse recurrence
// over one Symbolic. It is immutable after Symbolic.SelInv and safe to
// share read-only across sweep workers; each worker owns its Z scratch
// (NewZ).
//
// Z scratch layout: z[t] for t < len(lsrc) is the upper entry Z[k,r] of L
// slot t (entry L[r,k]); z[nL+u] is the lower entry Z[c,k] of U slot u
// (entry U[k,c]); z[nL+nU+k] is the diagonal Z[k,k]. Entries that are
// zero for every value set are never written, so a scratch must come
// from NewZ and serve this plan only.
type SelInv struct {
	sym *Symbolic
	// steps lists the steps with both an L column and a U row, in sweep
	// order (descending k).
	steps []selStep
	// lslot lists each step's L slots (column k of L), by ascending target
	// step.
	lslot []int32
	// gat holds each active step's |L_k|×|U_k| row-major matrix of z
	// slots: entry (a, b) addresses Z[c_b, r_a] for the a-th L slot
	// (target r_a) of column k and the b-th U slot (column c_b) of row k.
	gat []int32
	// diag[j] is the z slot of Z[j, σ(j)] = (A⁻¹)_jj, or -1 when A_jj is
	// not structurally present (the entry is then off the filled pattern).
	diag []int32
}

// selStep is one active step of the sweep: step k's L slots are
// lslot[l0:l1], its U slots uval[u0:u1], its gather block starts at
// gat[g0].
type selStep struct {
	k, l0, l1, u0, u1 int32
	g0                int
}

// SelInv builds the selected-inverse gather schedule of the symbolic
// analysis. It runs once per Symbolic; the cost is one binary search per
// gather slot.
func (s *Symbolic) SelInv() (*SelInv, error) {
	n := s.n
	nL, nU := len(s.lsrc), len(s.ucol)
	if int64(nL)+int64(nU)+int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: selected inverse of %d entries overflows int32 slots", nL+nU+n)
	}
	si := &SelInv{
		sym:   s,
		lslot: make([]int32, nL),
		diag:  make([]int32, n),
	}
	lcptr := make([]int32, n+1) // column k of L is lslot[lcptr[k]:lcptr[k+1]]
	for _, src := range s.lsrc {
		lcptr[src+1]++
	}
	for k := 0; k < n; k++ {
		lcptr[k+1] += lcptr[k]
	}
	ltgt := make([]int32, nL) // L slot -> target step
	next := append([]int32(nil), lcptr[:n]...)
	for r := 0; r < n; r++ {
		for t := s.lptr[r]; t < s.lptr[r+1]; t++ {
			ltgt[t] = int32(r)
			src := s.lsrc[t]
			si.lslot[next[src]] = t
			next[src]++
		}
	}
	// slot resolves Z[c, r] (both step indices) to its z slot, or -1.
	slot := func(c, r int32) int32 {
		switch {
		case c == r:
			return int32(nL+nU) + c
		case c < r: // upper entry: L[r, c]
			row := s.lsrc[s.lptr[r]:s.lptr[r+1]]
			if i := sort.Search(len(row), func(i int) bool { return row[i] >= c }); i < len(row) && row[i] == c {
				return s.lptr[r] + int32(i)
			}
		default: // lower entry: U[r, c]
			row := s.ucol[s.uptr[r]:s.uptr[r+1]]
			if i := sort.Search(len(row), func(i int) bool { return row[i] >= c }); i < len(row) && row[i] == c {
				return int32(nL) + s.uptr[r] + int32(i)
			}
		}
		return -1
	}
	for k := n - 1; k >= 0; k-- {
		st := selStep{k: int32(k), l0: lcptr[k], l1: lcptr[k+1], u0: s.uptr[k], u1: s.uptr[k+1], g0: len(si.gat)}
		if st.l0 == st.l1 || st.u0 == st.u1 {
			continue
		}
		si.steps = append(si.steps, st)
		ucols := s.ucol[st.u0:st.u1]
		for _, t := range si.lslot[st.l0:st.l1] {
			r := ltgt[t]
			for _, c := range ucols {
				z := slot(c, r)
				if z < 0 {
					return nil, fmt.Errorf("sparse: fill pattern not closed at Z[%d,%d] (step %d)", c, r, k)
				}
				si.gat = append(si.gat, z)
			}
		}
	}
	for r, row := range s.perm {
		si.diag[row] = slot(row, int32(r))
	}
	return si, nil
}

// Entries returns the number of Z entries one DiagInverseInto produces:
// the size of the filled pattern of (L+U)ᵀ, structurally zero entries
// included.
func (si *SelInv) Entries() int64 {
	return int64(len(si.sym.lsrc) + len(si.sym.ucol) + si.sym.n)
}

// NewZ returns a Z scratch sized for DiagInverseInto.
func (si *SelInv) NewZ() []complex128 { return make([]complex128, si.Entries()) }

// Covers reports whether (A⁻¹)_jj is on the filled pattern for every j in
// nodes: true exactly when A_jj is structurally present, which
// Recorder.CloseDiagonal guarantees for the unknowns it closes.
func (si *SelInv) Covers(nodes []int) bool {
	for _, j := range nodes {
		if j < 0 || j >= len(si.diag) || si.diag[j] < 0 {
			return false
		}
	}
	return true
}

// DiagInverseInto runs the selected-inverse recurrence over the current
// factorization into the scratch z (SelInv.NewZ) and gathers
// dst[i] = (A⁻¹)_{jj} for j = nodes[i]. It never allocates. Every node
// must be covered (SelInv.Covers); the plan must have been built from the
// Symbolic this Numeric was.
func (nm *Numeric) DiagInverseInto(dst []complex128, nodes []int, si *SelInv, z []complex128) error {
	sym := nm.sym
	if si == nil || si.sym != sym {
		return fmt.Errorf("sparse: selected-inverse plan was built for a different symbolic analysis")
	}
	if len(dst) != len(nodes) {
		return fmt.Errorf("sparse: dst length %d, want %d", len(dst), len(nodes))
	}
	if int64(len(z)) != si.Entries() {
		return fmt.Errorf("sparse: Z scratch length %d, want %d", len(z), si.Entries())
	}
	nL, nU := len(sym.lsrc), len(sym.ucol)
	zu, zd := z[nL:nL+nU], z[nL+nU:]
	copy(zd, nm.udinv) // Z[k,k] of every step outside si.steps
	for _, st := range si.steps {
		uv := nm.uval[st.u0:st.u1]
		zk := zu[st.u0:st.u1] // Z[c_b, k], accumulated in place
		for b := range zk {
			zk[b] = 0
		}
		g := si.gat[st.g0:]
		nu := len(uv)
		dinv := zd[st.k]
		for a, t := range si.lslot[st.l0:st.l1] {
			row := g[a*nu : (a+1)*nu]
			l := nm.lval[t]
			var s complex128
			for b, slot := range row {
				zcr := z[slot]
				s += uv[b] * zcr
				zk[b] -= zcr * l
			}
			z[t] = -s * dinv
		}
		var s complex128
		for b, u := range uv {
			s += u * zk[b]
		}
		zd[st.k] = (1 - s) * dinv
	}
	for i, j := range nodes {
		if j < 0 || j >= len(si.diag) || si.diag[j] < 0 {
			return fmt.Errorf("sparse: diagonal of unknown %d is off the filled pattern", j)
		}
		dst[i] = z[si.diag[j]]
	}
	return checkFinite(dst)
}
