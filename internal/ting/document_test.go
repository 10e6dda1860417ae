package ting

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// goldenMatrix is the matrix testdata/matrix-v2.ting holds: names a text
// document could not (a space, non-ASCII), and one cell of every
// provenance at its confidence.
func goldenMatrix(t *testing.T) *Matrix {
	t.Helper()
	m, err := NewMatrix([]string{"a", "b c", "ü-relay", "$0123456789ABCDEF"})
	if err != nil {
		t.Fatal(err)
	}
	m.SetAt(0, 1, 100.0/3)
	m.SetAt(0, 2, 20.25)
	m.setProv(0, 2, ProvResumed)
	m.setProv(1, 2, ProvRemoved)
	names := m.Names()
	if err := m.SetPredicted(names[1], names[3], 44.25, 0.41); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPredicted(names[3], names[2], 31.5, 0.73); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMatrixDocumentGolden pins the binary document's bytes: the golden
// matrix encodes to testdata/matrix-v2.ting exactly, and that file decodes
// to the golden matrix with every provenance at its confidence.
func TestMatrixDocumentGolden(t *testing.T) {
	m := goldenMatrix(t)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/matrix-v2.ting")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("document bytes moved: %d bytes, golden %d", buf.Len(), len(want))
	}
	got, err := DecodeMatrix(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if d := diffValues(got, m); d != "" {
		t.Fatal(d)
	}
	for _, c := range []struct {
		i, j int
		v    float64
		prov Provenance
		conf float64
	}{
		{0, 1, 100.0 / 3, ProvFresh, 1},
		{2, 0, 20.25, ProvResumed, 1},
		{1, 2, 0, ProvRemoved, 0},
		{1, 3, 44.25, ProvPredicted, 105.0 / 255},
		{2, 3, 31.5, ProvPredicted, 186.0 / 255},
		{0, 3, 0, ProvMissing, 0},
	} {
		if v, p, conf := got.At(c.i, c.j), got.ProvAt(c.i, c.j), got.ConfAt(c.i, c.j); v != c.v || p != c.prov || conf != c.conf {
			t.Errorf("cell (%d,%d) = %v %v at %v, want %v %v at %v", c.i, c.j, v, p, conf, c.v, c.prov, c.conf)
		}
	}
}

// TestMatrixDocumentSize: a document is its header line, the names with
// their length prefixes, a CRC, one fixed-size record per tile with a cell
// set, and the end record — nothing for a tile materialized but unset.
func TestMatrixDocumentSize(t *testing.T) {
	names := tileNames(200) // 4 tile bands, 10 tiles in the triangle
	m, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{0, 0}, {0, 3}, {2, 2}, {3, 3}} {
		m.SetAt(c[0]*TileDim+1, c[1]*TileDim+2, 1)
	}
	m.setProv(TileDim, 2*TileDim, ProvMissing) // materializes tile (1, 2), sets nothing
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// "tingmatrix/2 n=200\n" + 200 × (4 + len("r000")) + CRC + 4 tiles + end.
	const want = 19 + 200*8 + 4 + 4*40972 + 20
	if buf.Len() != want {
		t.Errorf("document is %d bytes, want %d", buf.Len(), want)
	}
}

// TestMatrixEncodeDependsOnCellsOnly: two matrices with the same cells
// encode to the same bytes, whichever tiles each materialized and in
// whatever order it wrote them.
func TestMatrixEncodeDependsOnCellsOnly(t *testing.T) {
	names := tileNames(3 * TileDim)
	a, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {5, 2 * TileDim}, {TileDim, TileDim + 3}, {2*TileDim + 1, 3*TileDim - 1}}
	for k, p := range pairs {
		a.SetAt(p[0], p[1], float64(k+1))
	}
	b.setProv(0, TileDim, ProvMissing) // a tile b materializes and leaves unset
	for k := len(pairs) - 1; k >= 0; k-- {
		b.SetAt(pairs[k][1], pairs[k][0], float64(k+1))
	}
	var ea, eb bytes.Buffer
	if err := a.Encode(&ea); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&eb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
		t.Fatalf("same cells, different documents: %d vs %d bytes", ea.Len(), eb.Len())
	}
}

// docLayout is where a binary document's records start: the first tile
// record, just past the names' CRC, and the end record.
func docLayout(doc []byte) (tiles, end int) {
	head := bytes.IndexByte(doc, '\n') + 1
	n, _ := strconv.Atoi(strings.TrimPrefix(string(doc[:head-1]), docMagic+" n="))
	tiles = head
	for k := 0; k < n; k++ {
		tiles += 4 + int(binary.LittleEndian.Uint32(doc[tiles:]))
	}
	return tiles + 4, len(doc) - endRecordSize
}

// reseal rewrites the CRC at the end of rec to match what precedes it, so
// a test's edit is refused by the rule it targets and not by the CRC.
func reseal(rec []byte) {
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.Checksum(rec[:len(rec)-4], castagnoli))
}

// refusalDoc is a valid document over 2·TileDim+2 relays, three tile bands,
// with a cell in four tiles, so four records: diagonal tile (0,0), interior
// tile (0,1), edge tile (0,2), and tile (2,2), on the diagonal and the edge.
func refusalDoc(t *testing.T) []byte {
	t.Helper()
	m, err := NewMatrix(tileNames(2*TileDim + 2))
	if err != nil {
		t.Fatal(err)
	}
	m.SetAt(0, 1, 7)
	m.SetAt(2, TileDim+1, 9)
	m.SetAt(3, 2*TileDim+1, 10)
	m.SetAt(2*TileDim, 2*TileDim+1, 11)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMatrix(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeMatrixRefusesBinary: one corruption per rule the decoder
// enforces, each resealed so that the rule itself, not a CRC, refuses it.
func TestDecodeMatrixRefusesBinary(t *testing.T) {
	le := binary.LittleEndian
	cell := func(a, b int) int { return 8 + 8*(a*TileDim+b) } // offset of a value in a record
	for _, c := range []struct {
		name, want string
		edit       func(doc []byte, tiles, end int) []byte
	}{
		{"value CRC", "fails its CRC", func(d []byte, tiles, _ int) []byte {
			d[tiles+cell(0, 1)] ^= 1
			return d
		}},
		{"names CRC", "names fail their CRC", func(d []byte, _, _ int) []byte {
			d[bytes.IndexByte(d, '\n')+5] ^= 1
			return d
		}},
		{"end CRC", "end record fails its CRC", func(d []byte, _, end int) []byte {
			d[end+8]++
			return d
		}},
		{"tiles out of order", "out of order", func(d []byte, tiles, _ int) []byte {
			r1 := append([]byte(nil), d[tiles+tileRecordSize:tiles+2*tileRecordSize]...)
			copy(d[tiles+tileRecordSize:], d[tiles+2*tileRecordSize:tiles+3*tileRecordSize])
			copy(d[tiles+2*tileRecordSize:], r1)
			return d
		}},
		{"tile repeated", "out of order or repeated", func(d []byte, tiles, _ int) []byte {
			copy(d[tiles+2*tileRecordSize:], d[tiles+tileRecordSize:tiles+2*tileRecordSize])
			return d
		}},
		{"tile below the diagonal", "outside the triangle", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles+tileRecordSize : tiles+2*tileRecordSize]
			le.PutUint32(rec, 1)
			le.PutUint32(rec[4:], 0)
			reseal(rec)
			return d
		}},
		{"tile past n", "outside the triangle", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles+3*tileRecordSize : tiles+4*tileRecordSize]
			le.PutUint32(rec[4:], 3)
			reseal(rec)
			return d
		}},
		{"all-zero tile", "no cell set", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles+3*tileRecordSize : tiles+4*tileRecordSize]
			clear(rec[8:])
			reseal(rec)
			return d
		}},
		{"cell below the diagonal", "outside the triangle", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles : tiles+tileRecordSize]
			le.PutUint64(rec[cell(3, 2):], math.Float64bits(1))
			reseal(rec)
			return d
		}},
		{"provenance below the diagonal", "outside the triangle", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles : tiles+tileRecordSize]
			rec[8+8*tileCells+(1*TileDim+0)] = byte(ProvFresh)
			reseal(rec)
			return d
		}},
		{"cell past n", "outside the triangle", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles+2*tileRecordSize : tiles+3*tileRecordSize]
			rec[8+9*tileCells+(0*TileDim+2)] = 1 // confidence of cell (0, 130)
			reseal(rec)
			return d
		}},
		{"row past n", "outside the triangle", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles+3*tileRecordSize : tiles+4*tileRecordSize]
			le.PutUint64(rec[cell(2, 3):], math.Float64bits(5)) // cell (130, 131)
			reseal(rec)
			return d
		}},
		{"NaN value", "non-finite", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles+tileRecordSize : tiles+2*tileRecordSize]
			le.PutUint64(rec[cell(2, 1):], math.Float64bits(math.NaN())) // cell (2, 65)
			reseal(rec)
			return d
		}},
		{"infinite value", "non-finite", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles : tiles+tileRecordSize]
			le.PutUint64(rec[cell(0, 1):], math.Float64bits(math.Inf(-1)))
			reseal(rec)
			return d
		}},
		{"unknown provenance", "unknown Provenance(5)", func(d []byte, tiles, _ int) []byte {
			rec := d[tiles+tileRecordSize : tiles+2*tileRecordSize]
			rec[8+8*tileCells+(2*TileDim+1)] = 5 // cell (2, 65)
			reseal(rec)
			return d
		}},
		{"count too high", "counts 5 tiles, the document holds 4", func(d []byte, _, end int) []byte {
			le.PutUint64(d[end+8:], 5)
			reseal(d[end:])
			return d
		}},
		{"tile dropped", "counts 4 tiles, the document holds 3", func(d []byte, tiles, _ int) []byte {
			return append(d[:tiles+tileRecordSize:tiles+tileRecordSize], d[tiles+2*tileRecordSize:]...)
		}},
		{"no end record", "no end record", func(d []byte, _, end int) []byte {
			return d[:end]
		}},
		{"trailing bytes", "trailing bytes", func(d []byte, _, _ int) []byte {
			return append(d, 0)
		}},
		{"header not canonical", "bad matrix header", func(d []byte, _, _ int) []byte {
			return append([]byte("tingmatrix/2 n=066\n"), d[bytes.IndexByte(d, '\n')+1:]...)
		}},
		{"header of another version", "bad matrix header", func(d []byte, _, _ int) []byte {
			return append([]byte("tingmatrix/3 n=66\n"), d[bytes.IndexByte(d, '\n')+1:]...)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			doc := refusalDoc(t)
			tiles, end := docLayout(doc)
			_, err := DecodeMatrix(bytes.NewReader(c.edit(doc, tiles, end)))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("decoded with error %v, want one saying %q", err, c.want)
			}
		})
	}
}

// TestDecodeMatrixRefusesEveryTruncation: a document cut at any byte —
// inside the header, the names, a record, or exactly between records — is
// refused; only the whole document decodes.
func TestDecodeMatrixRefusesEveryTruncation(t *testing.T) {
	m, err := NewMatrix([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	m.SetAt(0, 1, 3)
	m.SetAt(1, 2, 4)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	for k := 0; k < len(doc); k++ {
		if _, err := DecodeMatrix(bytes.NewReader(doc[:k])); err == nil {
			t.Fatalf("document cut at byte %d of %d decoded", k, len(doc))
		}
	}
	if _, err := DecodeMatrix(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeMatrixCapsRelays: a 1 MiB text document whose header line
// names 219 312 relays, and the same names in the binary form, are refused
// before anything is sized from n — with well under 4 MB allocated, where
// sizing the tile grid from n alone would take 94 MB.
func TestDecodeMatrixCapsRelays(t *testing.T) {
	const n = 219312
	names := make([]string, n)
	for i := range names {
		names[i] = strconv.FormatInt(int64(i), 36)
	}
	text := []byte("tingmatrix n=" + strconv.Itoa(n) + "\n" + strings.Join(names, " ") + "\n")
	if len(text) > 1<<20+64 {
		t.Fatalf("text document is %d bytes, want about 1 MiB", len(text))
	}
	bin := []byte(docMagic + " n=" + strconv.Itoa(n) + "\n")
	for _, name := range names {
		bin = binary.LittleEndian.AppendUint32(bin, uint32(len(name)))
		bin = append(bin, name...)
	}
	for form, doc := range map[string][]byte{"text": text, "binary": bin} {
		var err error
		b, _ := allocated(func() { _, err = DecodeMatrix(bytes.NewReader(doc)) })
		if err == nil {
			t.Errorf("%s document of %d relays decoded", form, n)
		}
		if b >= 4<<20 {
			t.Errorf("%s document of %d relays: refusing it allocated %d bytes, want under 4 MB", form, n, b)
		}
	}
}

// TestMatrixWriteFileFailureLeavesNothing: a write that fails returns its
// error and leaves nothing at path — nor a temporary file beside it.
func TestMatrixWriteFileFailureLeavesNothing(t *testing.T) {
	m := goldenMatrix(t)
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "matrix.ting")
	if err := m.WriteFile(missing); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("failed write left %s: %v", missing, err)
	}
	// Encoding succeeds here and the rename onto a directory fails.
	occupied := filepath.Join(dir, "matrix.ting")
	if err := os.Mkdir(occupied, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(occupied); err == nil {
		t.Error("write over a directory succeeded")
	}
	if fi, err := os.Stat(occupied); err != nil || !fi.IsDir() {
		t.Errorf("failed write replaced the directory at its path: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("failed writes left %d entries in the directory, want the 1 there before", len(entries))
	}
}

// TestMatrixWriteFileReplacesWhole: a reader polling path while it is
// rewritten over and over always reads a whole document, the old one or
// the new one, never part of either.
func TestMatrixWriteFileReplacesWhole(t *testing.T) {
	names := tileNames(3 * TileDim) // six tiles, a 246 KB document
	docs := make([]*Matrix, 2)
	for k := range docs {
		m, err := NewMatrix(names)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				m.SetAt(i, j, float64(k+1))
			}
		}
		docs[k] = m
	}
	path := filepath.Join(t.TempDir(), "matrix.ting")
	if err := docs[0].WriteFile(path); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
				return
			}
			m, err := DecodeMatrix(bytes.NewReader(b))
			if err != nil {
				t.Errorf("read %d: %v", reads, err)
				return
			}
			if v := m.At(0, len(names)-1); v != 1 && v != 2 {
				t.Errorf("read %d: cell reads %v", reads, v)
				return
			}
			reads++
		}
	}()
	var err error
	deadline := time.Now().Add(200 * time.Millisecond)
	for k := 1; err == nil && time.Now().Before(deadline) && !t.Failed(); k++ {
		err = docs[k%2].WriteFile(path)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if reads == 0 {
		t.Error("the reader never read the document")
	}
}

// BenchmarkMatrixCodec is the published dataset at the paper's scale:
// 7000 relays, every pair measured at full precision, encoded to a file
// and decoded back. It reports encode_s and decode_s per round trip and
// doc_mb, the document's size, and checks the decoded matrix's cells,
// provenance and confidence against the original's.
func BenchmarkMatrixCodec(b *testing.B) {
	const n = 7000
	m, err := NewMatrix(tileNames(n))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.SetAt(i, j, 5+400*rng.Float64())
		}
	}
	path := filepath.Join(b.TempDir(), "matrix.ting")
	var enc, dec time.Duration
	var got *Matrix
	for b.Loop() {
		start := time.Now()
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Encode(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		mid := time.Now()
		f, err = os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		got, err = DecodeMatrix(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		enc, dec = enc+mid.Sub(start), dec+time.Since(mid)
	}
	b.StopTimer()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(enc.Seconds()/float64(b.N), "encode_s")
	b.ReportMetric(dec.Seconds()/float64(b.N), "decode_s")
	b.ReportMetric(float64(fi.Size())/1e6, "doc_mb")
	for ti, row := range m.tiles {
		for tj, tl := range row {
			if (tl == nil) != (got.tiles[ti][tj] == nil) || tl != nil && *tl != *got.tiles[ti][tj] {
				b.Fatalf("tile (%d,%d) differs after the round trip", ti, tj)
			}
		}
	}
}
