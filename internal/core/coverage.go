package core

// This file records the library's coverage of the SciPy Sparse API in
// the taxonomy of the paper's §5: of an estimated 492 functions in
// scipy.sparse, the prototype implements 176 (35%) — 14 generated with
// DISTAL, 156 ported from SciPy/CuPy implementations (compositions of
// cuNumeric operations and previously defined sparse kernels), and 6
// hand-written. The same taxonomy classifies this reproduction's
// operations; CoverageReport exposes the inventory programmatically so
// tests and documentation stay consistent with the code.

// ImplKind classifies how an operation was implemented (§5.1–5.3).
type ImplKind int

const (
	// Generated operations dispatch into DISTAL-compiled kernels.
	Generated ImplKind = iota
	// Ported operations are compositions of cuNumeric ops and existing
	// sparse kernels, the analog of porting SciPy/CuPy Python code.
	Ported
	// HandWritten operations needed custom distributed kernels or
	// host-side structural passes (sorts, conversions, SpGEMM).
	HandWritten
)

func (k ImplKind) String() string {
	switch k {
	case Generated:
		return "generated"
	case Ported:
		return "ported"
	case HandWritten:
		return "hand-written"
	default:
		return "?"
	}
}

// APIEntry is one implemented operation of the SciPy Sparse surface.
type APIEntry struct {
	Name    string // scipy-style name
	Formats string // formats it applies to
	Kind    ImplKind
}

// Coverage returns the inventory of implemented operations.
func Coverage() []APIEntry {
	return []APIEntry{
		// §5.1 — generated with the DISTAL analog (kernel registry).
		{"csr_matrix.dot(vector) [SpMV]", "CSR", Generated},
		{"csc_matrix.dot(vector) [SpMV]", "CSC", Generated},
		{"csr_matrix.dot(matrix) [SpMM]", "CSR", Generated},
		{"sddmm (A ⊙ B·Cᵀ)", "CSR", Generated},
		{"sum(axis=1)", "CSR", Generated},
		{"dia_matrix.dot(vector) [SpMV]", "DIA", Generated},
		{"coo_matrix.dot(vector) [scatter SpMV]", "COO", Generated},
		{"bsr_matrix.dot(vector) [block SpMV]", "BSR", Generated},

		// §5.2 — ported: built from cuNumeric ops + existing kernels.
		{"multiply by scalar", "CSR/COO/CSC/DIA", Ported},
		{"eye / identity", "CSR", Ported},
		{"diags", "CSR", Ported},
		{"random", "CSR", Ported},
		{"kron", "CSR", Ported},
		{"linalg.cg", "CSR", Ported},
		{"linalg.cgs", "CSR", Ported},
		{"linalg.bicg", "CSR", Ported},
		{"linalg.bicgstab", "CSR", Ported},
		{"linalg.gmres", "CSR", Ported},
		{"linalg.eigs (power iteration)", "CSR", Ported},
		{"weighted Jacobi smoother", "CSR", Ported},
		{"geometric multigrid V-cycle / PCG", "CSR", Ported},
		{"integrate.RK45-style fixed-step RK4", "any", Ported},
		{"integrate 8th-order Runge-Kutta", "any", Ported},

		{"linalg.cg (Jacobi-preconditioned)", "CSR", Ported},
		{"integrate adaptive RKF45", "any", Ported},
		{"abs", "CSR", Ported},
		{"power(p)", "CSR", Ported},
		{"norm (1, inf, fro)", "CSR", Ported},
		{"getnnz(axis=1)", "CSR", Ported},
		{"bsr scale", "BSR", Ported},
		{"linalg.eigsh (Lanczos)", "CSR", Ported},
		{"multi-level geometric multigrid", "CSR", Ported},

		// §5.3 — hand-written distributed or structural kernels.
		{"sum(axis=0) [column scatter]", "CSR", HandWritten},
		{"diagonal()", "CSR", HandWritten},
		{"tocoo / tocsr / tocsc / todia conversions", "all", HandWritten},
		{"transpose", "CSR", HandWritten},
		{"A + B (pattern merge)", "CSR", HandWritten},
		{"A.multiply(B) (Hadamard)", "CSR", HandWritten},
		{"A @ B [SpGEMM, Gustavson]", "CSR", HandWritten},
		{"copy()", "CSR", HandWritten},
		{"tobsr / bsr.tocsr conversions", "CSR/BSR", HandWritten},
		{"getrow / getcol / A[i,j]", "CSR", HandWritten},
		{"A[lo:hi] row slicing", "CSR", HandWritten},
		{"hstack / vstack", "CSR", HandWritten},
		{"tril / triu", "CSR", HandWritten},
		{"eliminate_zeros", "CSR", HandWritten},
		{"reshape", "CSR", HandWritten},
		{"io.mmread / io.mmwrite (Matrix Market)", "CSR", HandWritten},
	}
}

// CoverageCounts returns the number of implemented operations per kind.
func CoverageCounts() map[ImplKind]int {
	out := map[ImplKind]int{}
	for _, e := range Coverage() {
		out[e.Kind]++
	}
	return out
}
