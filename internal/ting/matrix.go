package ting

import (
	"errors"
	"fmt"
)

// TileShift is log2 of the matrix tile dimension: cells are stored in
// TileDim×TileDim blocks, allocated on first write.
const TileShift = 6

const (
	// TileDim is the tile edge length in cells.
	TileDim  = 1 << TileShift
	tileMask = TileDim - 1
)

// tile is one TileDim×TileDim block of the matrix, row-major. Value,
// provenance, and confidence live side by side so a cell's full state has
// one owner; the zero value of all three arrays (0.0, ProvMissing, conf 0)
// is exactly the meaning of an unwritten cell, so tiles need no
// initialization beyond allocation.
type tile struct {
	r    [TileDim * TileDim]float64
	prov [TileDim * TileDim]Provenance
	// conf quantizes per-cell confidence to 1/255 steps: 255 for measured
	// cells, the embedding's Confidence score for predicted ones, 0 for
	// missing. A byte per cell keeps the completed matrix's annotation
	// overhead at 1/8th of the values themselves.
	conf [TileDim * TileDim]uint8
}

// tidx maps global indices to a cell's offset within its tile.
func tidx(i, j int) int { return (i&tileMask)<<TileShift | (j & tileMask) }

// ordered puts a pair's smaller index first: the one cell that holds it.
// min and max compile to conditional moves, so a read pays no branch.
func ordered(i, j int) (int, int) { return min(i, j), max(i, j) }

// Matrix is an all-pairs RTT dataset over named relays — the artifact
// Ting exists to produce and every Section 5 application consumes.
// R[i][j], read via At/RTT, is the measured RTT between Names()[i] and
// Names()[j] in milliseconds; symmetric with zero diagonal.
//
// Matrix is the *write side* of the dataset: scanners and monitors call
// Set/SetProv/AddName. Read-only consumers (pathsel, deanon, the serving
// plane) take the MatrixView interface instead, which *Matrix implements —
// see view.go for the read-side contract.
//
// Storage is tiled and holds one triangle: pair (i, j) lives only in cell
// (min, max), in tile (min»TileShift, max»TileShift), so tiles with ti > tj
// are never materialized and a diagonal tile uses its upper half. Tiles
// are materialized on first write, so a 10k-relay campaign that has
// measured 1% of its pairs holds 1% (plus block rounding) of the 400 MB
// the triangle's values would pin. Unmaterialized tiles read as zero /
// ProvMissing.
type Matrix struct {
	names []string

	index map[string]int
	// tiles[ti][tj] covers rows [ti·TileDim, (ti+1)·TileDim) × the
	// matching column band; nil until a cell in the block is written, and
	// always nil below the diagonal (ti > tj). The grid itself is
	// N²/TileDim² pointers — negligible next to the cells.
	tiles [][]*tile
	// cow[ti][tj] marks tiles[ti][tj] copy-before-write: some Clone shares
	// the tile, so it must not be written in place. Nil until the first
	// Clone on either side. Only the goroutine that writes this matrix reads
	// or changes the marks; readers of a shared tile never look at them.
	cow [][]bool
}

// Provenance classifies how a matrix cell got its value — the per-cell
// story a durable, resumable campaign must tell (a zero cell could be a
// failed pair or one the scan never reached).
type Provenance uint8

const (
	// ProvMissing: never measured — failed, quarantined, or not attempted.
	ProvMissing Provenance = iota
	// ProvFresh: measured by this scan.
	ProvFresh
	// ProvResumed: replayed from a checkpoint or a matrix document.
	ProvResumed
	// ProvRemoved: tombstoned — a relay of the pair left the consensus
	// before the pair could be measured (churn, not failure).
	ProvRemoved
	// ProvPredicted: completed by the coordinate embedding, not measured —
	// the value is a model prediction carrying a per-cell confidence
	// (ConfAt), and consumers that must not act on synthetic data (TIV
	// witnesses, high-stakes path selection) filter on this.
	ProvPredicted
)

func (p Provenance) String() string {
	switch p {
	case ProvMissing:
		return "missing"
	case ProvFresh:
		return "fresh"
	case ProvResumed:
		return "resumed"
	case ProvRemoved:
		return "removed"
	case ProvPredicted:
		return "predicted"
	}
	return fmt.Sprintf("Provenance(%d)", int(p))
}

// NewMatrix allocates a zeroed matrix over names. No cell tiles are
// materialized: a fresh matrix costs O(N²/TileDim²) pointers, not O(N²)
// cells.
func NewMatrix(names []string) (*Matrix, error) {
	if len(names) < 2 {
		return nil, errors.New("ting: matrix needs at least two relays")
	}
	m := &Matrix{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
	}
	for i, n := range m.names {
		if n == "" {
			return nil, errors.New("ting: empty relay name")
		}
		if _, dup := m.index[n]; dup {
			return nil, fmt.Errorf("ting: duplicate relay %q", n)
		}
		m.index[n] = i
	}
	m.tiles = newGrid[*tile](tileCount(len(names)), nil)
	return m, nil
}

// tileCount is how many tile bands cover n cells per axis.
func tileCount(n int) int { return (n + tileMask) >> TileShift }

// newGrid allocates a tn×tn grid of zero entries (nil tile pointers, clear
// marks) in one backing slice, copying old's entries into the top-left
// corner. Tiling is index-stable — cell (i,j) lives in tile (i»TileShift,
// j»TileShift) no matter how large the matrix is — so growth never moves
// cells, only re-places tile pointers and their marks on the wider grid.
func newGrid[T any](tn int, old [][]T) [][]T {
	grid := make([][]T, tn)
	backing := make([]T, tn*tn)
	for ti := range grid {
		grid[ti] = backing[ti*tn : (ti+1)*tn : (ti+1)*tn]
		if ti < len(old) {
			copy(grid[ti], old[ti])
		}
	}
	return grid
}

// N returns the number of relays.
func (m *Matrix) N() int { return len(m.names) }

// at reads a cell without bounds checking; unmaterialized tiles are zero.
func (m *Matrix) at(i, j int) float64 {
	i, j = ordered(i, j)
	t := m.tiles[i>>TileShift][j>>TileShift]
	if t == nil {
		return 0
	}
	return t.r[tidx(i, j)]
}

// cellTile returns the tile holding cell (i,j), i ≤ j, for writing — the
// only writer of a tile but one: DecodeMatrix installs the tiles it reads
// from a binary document directly, since a matrix being decoded was never
// cloned and has no mark to honour. cellTile materializes the tile on first
// write and, if a Clone shares it, replaces it with a private copy and
// clears the mark, so the copy is written in place from then on. The whole
// function fits the inlining budget (CI's "Inlining" step fails if it
// stops), so a write to a materialized tile of a matrix that was never
// cloned pays two compares and no call.
func (m *Matrix) cellTile(i, j int) *tile {
	ti, tj := i>>TileShift, j>>TileShift
	t := m.tiles[ti][tj]
	if t == nil {
		t = new(tile)
		m.tiles[ti][tj] = t
	} else if m.cow != nil && m.cow[ti][tj] {
		dup := *t
		t = &dup
		m.tiles[ti][tj] = t
		m.cow[ti][tj] = false
	}
	return t
}

// AddName grows the matrix by one relay: a new zeroed row and column whose
// cells are ProvMissing until measured. This is how a mid-scan consensus
// join enters an in-progress campaign's matrix. Crossing a tile boundary
// re-places the existing tile pointers on a wider grid; cell blocks
// themselves never move or reallocate.
func (m *Matrix) AddName(name string) error {
	if name == "" {
		return errors.New("ting: empty relay name")
	}
	if _, dup := m.index[name]; dup {
		return fmt.Errorf("ting: duplicate relay %q", name)
	}
	m.index[name] = len(m.names)
	m.names = append(m.names, name)
	if tn := tileCount(len(m.names)); tn > len(m.tiles) {
		m.tiles = newGrid(tn, m.tiles)
		if m.cow != nil {
			m.cow = newGrid(tn, m.cow)
		}
	}
	return nil
}

// Set records a measured RTT for a pair and in the same tile walk stamps
// the cell ProvFresh at full confidence: a value that was measured never
// reads as missing because its writer forgot a second call.
// A writer with another story for the cell says so afterwards (SetProv,
// as a resumed scan does) or writes through SetPredicted.
func (m *Matrix) Set(x, y string, ms float64) error {
	i, ok := m.index[x]
	if !ok {
		return fmt.Errorf("ting: unknown relay %q", x)
	}
	j, ok := m.index[y]
	if !ok {
		return fmt.Errorf("ting: unknown relay %q", y)
	}
	m.SetAt(i, j, ms)
	return nil
}

// SetAt is Set by index, for a writer that already holds a pair's indices
// (a campaign coordinator's ledger). Like At, it panics on out-of-range
// indices.
func (m *Matrix) SetAt(i, j int, ms float64) {
	n := len(m.names)
	if i < 0 || j < 0 || i >= n || j >= n {
		panic(fmt.Sprintf("ting: matrix index (%d,%d) out of range [0,%d)", i, j, n))
	}
	m.write(i, j, ms, ProvFresh, 255)
}

// write stores a pair's whole state in its one cell.
func (m *Matrix) write(i, j int, ms float64, p Provenance, conf uint8) {
	i, j = ordered(i, j)
	t, off := m.cellTile(i, j), tidx(i, j)
	t.r[off], t.prov[off], t.conf[off] = ms, p, conf
}

// RTT returns the RTT between two named relays.
func (m *Matrix) RTT(x, y string) (float64, error) {
	i, ok := m.index[x]
	if !ok {
		return 0, fmt.Errorf("ting: unknown relay %q", x)
	}
	j, ok := m.index[y]
	if !ok {
		return 0, fmt.Errorf("ting: unknown relay %q", y)
	}
	return m.at(i, j), nil
}

// At returns the RTT by index; it panics on out-of-range indices like the
// slice access it replaces.
func (m *Matrix) At(i, j int) float64 {
	n := len(m.names)
	if i < 0 || j < 0 || i >= n || j >= n {
		panic(fmt.Sprintf("ting: matrix index (%d,%d) out of range [0,%d)", i, j, n))
	}
	return m.at(i, j)
}

// Dense materializes the matrix as row slices over one backing array —
// for O(N²)-and-up analysis loops (TIV scans, path enumeration) where
// per-cell At calls would pay the tile indirection N³ times. The copy is
// independent of the matrix; mutate neither expecting the other to see
// it. Each stored cell is read once and written to both of its places.
func (m *Matrix) Dense() [][]float64 {
	n := len(m.names)
	rows := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range rows {
		rows[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		trow := m.tiles[i>>TileShift]
		for j := i; j < n; j++ {
			if t := trow[j>>TileShift]; t != nil {
				v := t.r[tidx(i, j)]
				rows[i][j], rows[j][i] = v, v
			}
		}
	}
	return rows
}

// Clone returns an independent copy that shares m's tiles: it copies the
// name index and the tile-pointer grid, and marks every materialized tile
// copy-before-write on both matrices, so whichever side writes a tile first
// takes a private copy (cellTile) and the other side never sees the write.
// A clone therefore costs the grid, a write after it costs the tiles it
// touches, and a tile is freed when the last matrix pointing at it goes.
//
// Clone writes m's marks, so it belongs to the goroutine that writes m (or
// runs under the lock that serializes m's writers, as Monitor.Matrix does);
// it is not safe beside another Clone, or a write, of the same matrix.
func (m *Matrix) Clone() *Matrix {
	tn := len(m.tiles)
	cp := &Matrix{
		// Shared, capacity clipped: an AddName on the clone reallocates, and
		// one on m appends past what the clone can see.
		names: m.names[:len(m.names):len(m.names)],
		index: make(map[string]int, len(m.index)),
		tiles: newGrid(tn, m.tiles),
		cow:   newGrid[bool](tn, nil),
	}
	for k, v := range m.index {
		cp.index[k] = v
	}
	if m.cow == nil {
		m.cow = newGrid[bool](tn, nil)
	}
	for ti, row := range m.tiles {
		for tj, t := range row {
			m.cow[ti][tj], cp.cow[ti][tj] = t != nil, t != nil
		}
	}
	return cp
}

// SetProv records a pair's provenance. Confidence is derived: measured
// cells (fresh or resumed) are fully trusted, everything else scores zero —
// predicted cells carry a real model confidence and go through
// SetPredicted instead.
func (m *Matrix) SetProv(x, y string, p Provenance) error {
	i, ok := m.index[x]
	if !ok {
		return fmt.Errorf("ting: unknown relay %q", x)
	}
	j, ok := m.index[y]
	if !ok {
		return fmt.Errorf("ting: unknown relay %q", y)
	}
	m.setProv(i, j, p)
	return nil
}

// setProv is SetProv by index.
func (m *Matrix) setProv(i, j int, p Provenance) {
	var conf uint8
	if p == ProvFresh || p == ProvResumed {
		conf = 255
	}
	m.setMark(i, j, p, conf)
}

// setMark stores a pair's provenance and confidence, leaving its value.
func (m *Matrix) setMark(i, j int, p Provenance, conf uint8) {
	i, j = ordered(i, j)
	t, off := m.cellTile(i, j), tidx(i, j)
	t.prov[off], t.conf[off] = p, conf
}

// SetPredicted fills a cell from the coordinate embedding: value, the
// ProvPredicted provenance, and the model's confidence (clamped to [0, 1],
// quantized to 1/255 steps). This is the completion layer's single write
// path, so a predicted cell can never masquerade as a measured one.
func (m *Matrix) SetPredicted(x, y string, ms, conf float64) error {
	i, ok := m.index[x]
	if !ok {
		return fmt.Errorf("ting: unknown relay %q", x)
	}
	j, ok := m.index[y]
	if !ok {
		return fmt.Errorf("ting: unknown relay %q", y)
	}
	if i == j {
		return fmt.Errorf("ting: refusing to predict self-pair %q", x)
	}
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	m.write(i, j, ms, ProvPredicted, uint8(conf*255+0.5))
	return nil
}

// Prov returns a cell's provenance; unknown relays and unwritten cells
// report ProvMissing.
func (m *Matrix) Prov(x, y string) Provenance {
	i, ok := m.index[x]
	if !ok {
		return ProvMissing
	}
	j, ok := m.index[y]
	if !ok {
		return ProvMissing
	}
	return m.provAt(i, j)
}

// provAt reads a cell's provenance without bounds checking.
func (m *Matrix) provAt(i, j int) Provenance {
	i, j = ordered(i, j)
	t := m.tiles[i>>TileShift][j>>TileShift]
	if t == nil {
		return ProvMissing
	}
	return t.prov[tidx(i, j)]
}

// ConfAt returns a cell's confidence in [0, 1] by index: 1 for measured
// cells, the embedding's (quantized) score for predicted ones, 0 for
// missing. It panics on out-of-range indices like At. The diagonal is
// fully trusted by definition.
func (m *Matrix) ConfAt(i, j int) float64 {
	n := len(m.names)
	if i < 0 || j < 0 || i >= n || j >= n {
		panic(fmt.Sprintf("ting: matrix index (%d,%d) out of range [0,%d)", i, j, n))
	}
	if i == j {
		return 1
	}
	i, j = ordered(i, j)
	t := m.tiles[i>>TileShift][j>>TileShift]
	if t == nil {
		return 0
	}
	return float64(t.conf[tidx(i, j)]) / 255
}

// Cell is one cell's whole state as Gather copies it out: value,
// provenance, and confidence as the tile stores it, in 1/255 steps (255 =
// fully trusted, what ConfAt reports as 1).
type Cell struct {
	RTT  float64
	Prov Provenance
	Conf uint8
}

// Gather is the bulk read: it copies the cells at idx — flat index pairs
// (i0, j0, i1, j1, …) — into dst, which must hold len(idx)/2 cells, and
// returns how many it copied. That is every pair, unless one has an index
// outside [0, N): Gather stops there and returns that pair's position, so
// range checking costs no second pass and nothing panics on indices taken
// off a socket. Cell k equals At, ProvAt and ConfAt·255 of pair k.
//
// A random cell of a large matrix is a cache miss per array, and the misses
// of different cells are independent; the loop is one tile walk and three
// loads a cell, short enough for the core to have many cells' misses in
// flight at once, where At + ProvAt + ConfAt per cell keep three or four.
// Callers gather a chunk into a small array, then do their per-cell work
// from it.
func (m *Matrix) Gather(idx []uint32, dst []Cell) int {
	n := uint32(len(m.names))
	dst = dst[:len(idx)/2]
	for k := range dst {
		i, j := idx[2*k], idx[2*k+1]
		if i >= n || j >= n {
			return k
		}
		a, b := min(i, j), max(i, j)
		var c Cell
		if t := m.tiles[a>>TileShift][b>>TileShift]; t != nil {
			off := tidx(int(a), int(b))
			c = Cell{t.r[off], t.prov[off], t.conf[off]}
		}
		if i == j {
			c.Conf = 255
		}
		dst[k] = c
	}
	return len(dst)
}

// ProvCount is the upper-triangle provenance tally — the "how complete is
// this campaign" summary. A struct (rather than positional returns) so
// new provenance classes extend it without breaking every caller.
type ProvCount struct {
	Fresh     int
	Resumed   int
	Removed   int
	Predicted int
	Missing   int
}

// Measured is the number of pairs backed by real measurements (fresh or
// resumed) — the numerator of a budgeted campaign's measured fraction.
func (c ProvCount) Measured() int { return c.Fresh + c.Resumed }

// ProvCounts tallies the upper triangle's provenance. Unmaterialized
// tiles count as all-missing without being touched.
func (m *Matrix) ProvCounts() ProvCount {
	var c ProvCount
	n := len(m.names)
	for i := 0; i < n; i++ {
		trow := m.tiles[i>>TileShift]
		for j := i + 1; j < n; j++ {
			t := trow[j>>TileShift]
			if t == nil {
				c.Missing++
				continue
			}
			switch t.prov[tidx(i, j)] {
			case ProvFresh:
				c.Fresh++
			case ProvResumed:
				c.Resumed++
			case ProvRemoved:
				c.Removed++
			case ProvPredicted:
				c.Predicted++
			default:
				c.Missing++
			}
		}
	}
	return c
}

// Mean returns µ, the average RTT over all unordered pairs — the term
// Algorithm 1 uses to approximate the unknown source→entry RTT.
func (m *Matrix) Mean() float64 {
	n := len(m.names)
	var sum float64
	var count int
	for i := 0; i < n; i++ {
		trow := m.tiles[i>>TileShift]
		for j := i + 1; j < n; j++ {
			if t := trow[j>>TileShift]; t != nil {
				sum += t.r[tidx(i, j)]
			}
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// PairValues returns the RTTs of all unordered pairs.
func (m *Matrix) PairValues() []float64 {
	n := len(m.names)
	out := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		trow := m.tiles[i>>TileShift]
		for j := i + 1; j < n; j++ {
			var v float64
			if t := trow[j>>TileShift]; t != nil {
				v = t.r[tidx(i, j)]
			}
			out = append(out, v)
		}
	}
	return out
}
