package ting

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// tileNames returns n distinct relay names — enough to span several tile
// bands when n > TileDim.
func tileNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%03d", i)
	}
	return names
}

// diffValues describes the first difference between the names or cell
// values of a and b, or returns "" when they hold the same values whatever
// their provenance says.
func diffValues(a, b *Matrix) string {
	if !slices.Equal(a.Names(), b.Names()) {
		return fmt.Sprintf("names %v vs %v", a.Names(), b.Names())
	}
	for i := 0; i < a.N(); i++ {
		for j := i; j < a.N(); j++ {
			if x, y := a.At(i, j), b.At(i, j); x != y {
				return fmt.Sprintf("cell (%d,%d) %v vs %v", i, j, x, y)
			}
		}
	}
	return ""
}

func TestMatrixAddNameProvCountsParity(t *testing.T) {
	// Growth must treat a never-annotated matrix and an annotated one
	// identically: the new relay's pairs are ProvMissing in both, and
	// existing annotations survive untouched.
	bare, err := NewMatrix([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	noted, err := NewMatrix([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := noted.SetProv("a", "b", ProvFresh); err != nil {
		t.Fatal(err)
	}
	if err := noted.SetProv("b", "c", ProvResumed); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Matrix{bare, noted} {
		if err := m.AddName("d"); err != nil {
			t.Fatal(err)
		}
	}
	if pc := bare.ProvCounts(); pc != (ProvCount{Missing: 6}) {
		t.Errorf("bare ProvCounts = %+v, want 0/0/0/0/6", pc)
	}
	if pc := noted.ProvCounts(); pc != (ProvCount{Fresh: 1, Resumed: 1, Missing: 4}) {
		t.Errorf("annotated ProvCounts = %+v, want 1/1/0/0/4", pc)
	}
	for _, m := range []*Matrix{bare, noted} {
		for _, x := range []string{"a", "b", "c"} {
			if p := m.Prov(x, "d"); p != ProvMissing {
				t.Errorf("Prov(%s,d) = %v after growth, want missing", x, p)
			}
		}
	}
}

func TestMatrixTileBoundaryGrowth(t *testing.T) {
	// Start one relay short of a tile band, write near the far edge, then
	// grow across the boundary: the grid is re-placed but cells must not
	// move or change.
	names := tileNames(TileDim - 1)
	m, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set(names[0], names[TileDim-2], 7.25); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProv(names[0], names[TileDim-2], ProvFresh); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < TileDim+2; i++ {
		if err := m.AddName(fmt.Sprintf("x%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.N() != 2*TileDim+1 {
		t.Fatalf("N = %d, want %d", m.N(), 2*TileDim+1)
	}
	if got, err := m.RTT(names[0], names[TileDim-2]); err != nil || got != 7.25 {
		t.Errorf("RTT after growth = %v, %v; want 7.25", got, err)
	}
	if p := m.Prov(names[0], names[TileDim-2]); p != ProvFresh {
		t.Errorf("Prov after growth = %v, want fresh", p)
	}
	// Writes across the new boundary land in freshly materialized tiles.
	if err := m.Set("x000", "x065", 3.5); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.RTT("x065", "x000"); got != 3.5 {
		t.Errorf("cross-boundary RTT = %v, want 3.5", got)
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m, err := NewMatrix([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("a", "b", 5); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProv("a", "b", ProvFresh); err != nil {
		t.Fatal(err)
	}
	cp := m.Clone()
	if err := m.Set("a", "b", 9); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProv("a", "c", ProvRemoved); err != nil {
		t.Fatal(err)
	}
	if got, _ := cp.RTT("a", "b"); got != 5 {
		t.Errorf("clone RTT = %v after original mutated, want 5", got)
	}
	if p := cp.Prov("a", "c"); p != ProvMissing {
		t.Errorf("clone Prov = %v after original mutated, want missing", p)
	}
	if err := cp.AddName("d"); err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 {
		t.Error("growing the clone grew the original")
	}
}

func TestMatrixAtPanicsOutOfRange(t *testing.T) {
	m, err := NewMatrix([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	_ = m.At(0, 2)
}

func TestDecodeMatrixStaysSparse(t *testing.T) {
	// Dense documents full of zeros decode without materializing tiles:
	// the decoded matrix must still report zero everywhere but Encode
	// identically to its source.
	names := tileNames(TileDim + 1)
	m, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set(names[0], names[TileDim], 2.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	got, err := DecodeMatrix(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	tiles := 0
	for _, row := range got.tiles {
		for _, tl := range row {
			if tl != nil {
				tiles++
			}
		}
	}
	if tiles != 1 {
		t.Errorf("decode materialized %d tiles, want 1 (the written pair's one cell)", tiles)
	}
	var again bytes.Buffer
	if err := got.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != doc {
		t.Error("sparse decode re-encodes differently")
	}
}

func TestMatrixSetPredictedAndConfidence(t *testing.T) {
	m, err := NewMatrix(tileNames(TileDim + 3)) // span a tile boundary
	if err != nil {
		t.Fatal(err)
	}
	names := m.Names()
	if err := m.Set(names[0], names[1], 10); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProv(names[0], names[1], ProvFresh); err != nil {
		t.Fatal(err)
	}
	// Measured cells read confidence 1 both ways.
	if c := m.ConfAt(0, 1); c != 1 {
		t.Errorf("measured ConfAt = %v, want 1", c)
	}
	if c := m.ConfAt(1, 0); c != 1 {
		t.Errorf("measured ConfAt(j,i) = %v, want 1", c)
	}
	// Predicted cell across the tile boundary.
	x, y := names[2], names[TileDim+1]
	if err := m.SetPredicted(x, y, 73.5, 0.8); err != nil {
		t.Fatal(err)
	}
	if p := m.Prov(x, y); p != ProvPredicted {
		t.Errorf("Prov = %v, want predicted", p)
	}
	if p := m.Prov(y, x); p != ProvPredicted {
		t.Errorf("Prov transposed = %v, want predicted", p)
	}
	if v, err := m.RTT(x, y); err != nil || v != 73.5 {
		t.Errorf("RTT = %v, %v", v, err)
	}
	// Confidence is quantized to a byte: 0.8 → round(0.8·255)/255.
	q := 0.8*255 + 0.5
	want := float64(uint8(q)) / 255
	xi, _ := m.Index(x)
	yi, _ := m.Index(y)
	if c := m.ConfAt(xi, yi); c != want {
		t.Errorf("ConfAt = %v, want %v", c, want)
	}
	if m.ConfAt(xi, yi) != m.ConfAt(yi, xi) {
		t.Error("predicted confidence asymmetric")
	}
	// Out-of-range confidence clamps rather than wrapping the byte.
	if err := m.SetPredicted(names[3], names[4], 5, 1.7); err != nil {
		t.Fatal(err)
	}
	if c := m.ConfAt(3, 4); c != 1 {
		t.Errorf("clamped ConfAt = %v, want 1", c)
	}
	if err := m.SetPredicted(names[5], names[6], 5, -0.3); err != nil {
		t.Fatal(err)
	}
	if c := m.ConfAt(5, 6); c != 0 {
		t.Errorf("clamped ConfAt = %v, want 0", c)
	}
	// Diagonal and untouched cells.
	if c := m.ConfAt(2, 2); c != 1 {
		t.Errorf("diagonal ConfAt = %v, want 1", c)
	}
	if c := m.ConfAt(7, 8); c != 0 {
		t.Errorf("missing-cell ConfAt = %v, want 0", c)
	}
	// ProvCounts sees the predicted cells; a clone carries confidence.
	pc := m.ProvCounts()
	if pc.Predicted != 3 || pc.Fresh != 1 {
		t.Errorf("ProvCounts = %+v, want 3 predicted / 1 fresh", pc)
	}
	cl := m.Clone()
	if c := cl.ConfAt(xi, yi); c != want {
		t.Errorf("clone ConfAt = %v, want %v", c, want)
	}
	// SetPredicted on unknown names errors like Set does.
	if err := m.SetPredicted("nope", names[0], 1, 0.5); err == nil {
		t.Error("unknown relay accepted")
	}
	if err := m.SetPredicted(names[0], names[0], 1, 0.5); err == nil {
		t.Error("self pair accepted")
	}
}

// TestMatrixEncodePredictedRoundTrip: the document carries predicted
// provenance and confidence through a round trip exactly — the quantized
// byte is persisted, not a float — and measured provenance with them.
func TestMatrixEncodePredictedRoundTrip(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	m, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			m.Set(names[i], names[j], float64(10*(i+j)))
			m.SetProv(names[i], names[j], ProvFresh)
		}
	}
	if err := m.SetPredicted("a", "c", 31.5, 0.73); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPredicted("b", "d", 44.25, 0.41); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMatrix(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p := got.Prov("a", "c"); p != ProvPredicted {
		t.Errorf("a-c provenance %v after round trip, want predicted", p)
	}
	if p := got.Prov("c", "a"); p != ProvPredicted {
		t.Errorf("pred record applied one-directionally")
	}
	if got.ConfAt(0, 2) != m.ConfAt(0, 2) || got.ConfAt(1, 3) != m.ConfAt(1, 3) {
		t.Errorf("confidence drifted: (%v,%v) vs (%v,%v)",
			got.ConfAt(0, 2), got.ConfAt(1, 3), m.ConfAt(0, 2), m.ConfAt(1, 3))
	}
	if v, _ := got.RTT("a", "c"); v != 31.5 {
		t.Errorf("predicted value %v after round trip, want 31.5", v)
	}
	// Measured provenance persists too.
	if p := got.Prov("a", "b"); p != ProvFresh {
		t.Errorf("a-b provenance %v after round trip, want fresh", p)
	}

}

// allocated reports the bytes and objects f allocates.
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// fullMatrix returns an n-relay matrix with every tile of its one triangle
// materialized — one cell written in each, which is all that allocation
// and copying depend on.
func fullMatrix(tb testing.TB, n int) *Matrix {
	tb.Helper()
	names := tileNames(n)
	m, err := NewMatrix(names)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i += TileDim {
		for j := i; j < n; j += TileDim {
			if err := m.Set(names[i], names[j], 1); err != nil {
				tb.Fatal(err)
			}
			if err := m.SetProv(names[i], names[j], ProvFresh); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return m
}

// TestMatrixCloneAllocatesGridNotTiles: cloning a matrix whose 136 tiles are
// all materialized (5.6 MB of cells) allocates the names and the grid, and
// the first Set on the clone copies the one tile it writes and no other.
func TestMatrixCloneAllocatesGridNotTiles(t *testing.T) {
	const n = 1000
	m := fullMatrix(t, n)
	var cp *Matrix
	if b, _ := allocated(func() { cp = m.Clone() }); b >= 64<<10 {
		t.Errorf("Clone of a full %d-relay matrix allocated %d bytes, want under 64 KiB", n, b)
	}
	names := m.Names()
	b, objects := allocated(func() {
		if err := cp.Set(names[3], names[n-1], 7); err != nil {
			t.Error(err)
		}
	})
	if tileBytes := uint64(unsafe.Sizeof(tile{})); objects != 1 || b < tileBytes || b >= 2*tileBytes {
		t.Errorf("first Set after Clone allocated %d objects, %d bytes; want the 1 tile it writes (%d bytes)", objects, b, tileBytes)
	}
	if got := m.At(3, n-1); got != 0 {
		t.Errorf("Set on the clone shows in the source: %v", got)
	}
	// The copies are private now: writing them again allocates nothing.
	if _, objects := allocated(func() { _ = cp.Set(names[4], names[n-2], 8) }); objects != 0 {
		t.Errorf("second Set into the same tiles allocated %d objects", objects)
	}
}

var cloneSink *Matrix

// BenchmarkMatrixClone is what an epoch publish pays up front for a full
// 1000-relay matrix.
func BenchmarkMatrixClone(b *testing.B) {
	m := fullMatrix(b, 1000)
	b.ReportAllocs()
	for b.Loop() {
		cloneSink = m.Clone()
	}
}

// BenchmarkMatrixSetAfterClone is what the publish pays later: the first
// write to a pair after a Clone, which copies the pair's one tile.
func BenchmarkMatrixSetAfterClone(b *testing.B) {
	m := fullMatrix(b, 1000)
	names := m.Names()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		b.StopTimer()
		cloneSink = m.Clone()
		b.StartTimer()
		if err := m.Set(names[3], names[999], float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
