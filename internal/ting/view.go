package ting

import "fmt"

// MatrixView is the read side of the all-pairs dataset. It is the contract
// every consumer of a matrix takes — pathsel's circuit selection, deanon's
// attacker, and the serving plane's query handlers — so that readers are
// decoupled from the writer (*Matrix) and cannot write through what they
// are handed, whether that is a finished scan or a published epoch.
//
// All methods are safe for concurrent readers while no writer is mutating
// the matrix; one that is being written (a live scan, a monitor between
// sweeps) must be snapshotted (Clone, or Monitor.Matrix) before it is
// shared with readers. Taking the snapshot is the writer's job: Clone marks
// the source's tiles as shared, which is a write like any other.
type MatrixView interface {
	// N is the number of relays.
	N() int
	// Names lists the relay names, index-aligned with At/ProvAt. Callers
	// must treat the slice as read-only.
	Names() []string
	// Index resolves a relay name to its row/column index.
	Index(name string) (int, bool)
	// At returns the RTT between relays i and j in milliseconds; it panics
	// on out-of-range indices.
	At(i, j int) float64
	// ProvAt returns the provenance of cell (i, j); it panics on
	// out-of-range indices.
	ProvAt(i, j int) Provenance
	// ConfAt returns the confidence of cell (i, j) in [0, 1]: 1 for
	// measured cells, the embedding's score for ProvPredicted cells, 0 for
	// missing. It panics on out-of-range indices.
	ConfAt(i, j int) float64
	// RTT returns the RTT between two named relays.
	RTT(x, y string) (float64, error)
	// Prov returns a cell's provenance by name; unknown relays report
	// ProvMissing.
	Prov(x, y string) Provenance
	// Mean returns µ, the average RTT over all unordered pairs.
	Mean() float64
	// Dense materializes the matrix as row slices over one backing array,
	// for O(N²)-and-up analysis loops. The copy is independent of the view.
	Dense() [][]float64
}

var _ MatrixView = (*Matrix)(nil)

// Names implements MatrixView. The returned slice is the matrix's backing
// store: callers must not mutate it.
func (m *Matrix) Names() []string { return m.names }

// Index implements MatrixView.
func (m *Matrix) Index(name string) (int, bool) {
	i, ok := m.index[name]
	return i, ok
}

// ProvAt implements MatrixView; like At it panics on out-of-range indices.
func (m *Matrix) ProvAt(i, j int) Provenance {
	n := len(m.names)
	if i < 0 || j < 0 || i >= n || j >= n {
		panic(fmt.Sprintf("ting: matrix index (%d,%d) out of range [0,%d)", i, j, n))
	}
	return m.provAt(i, j)
}
