package ting

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"ting/internal/wal"
)

// The matrix document is the published dataset: what Encode writes,
// WriteFile puts on disk, and DecodeMatrix — so tingd -matrix and tingdata
// — reads. Its one canonical form is binary and holds the stored triangle
// as it is stored, tile by tile:
//
//	"tingmatrix/2 n=<n>\n"
//	n names, each a uint32 byte length and the bytes
//	uint32 CRC-32C of the header line and the names
//	one record per tile (ti, tj), ti ≤ tj, with a cell set, in grid order:
//	    uint32 ti, uint32 tj
//	    r     TileDim² float64, row-major within the tile
//	    prov  TileDim² bytes
//	    conf  TileDim² bytes
//	    uint32 CRC-32C of the record
//	end record: uint32 ^0, uint32 ^0, uint64 tile count, uint32 CRC-32C
//
// Integers and floats are little-endian. A cell is set when any bit of its
// value, provenance or confidence is, and a tile with no cell set has no
// record, so the bytes depend on the cells alone: not on which tiles a
// writer happened to materialize, nor in what order. Value, provenance and
// confidence round-trip bit for bit.
//
// This is the only form DecodeMatrix reads. `tingdata text` prints the same
// cells as text for a human to read; nothing reads that back.
const (
	docMagic  = "tingmatrix/2"
	tileCells = TileDim * TileDim
	// tileRecordSize is a tile record: coordinates, cells and CRC.
	tileRecordSize = 8 + tileCells*(8+1+1) + 4
	// endRecordSize is the end record: the end mark, tile count and CRC.
	endRecordSize = 8 + 8 + 4
	endMark       = ^uint32(0)
	// maxDocRelays caps a document's n and is checked before anything is
	// sized from n: 65 536 relays, about nine times Tor's relay count. It
	// bounds the constant part of what DecodeMatrix allocates — the rest is
	// proportional to the document — at the tile grid (1024² pointers,
	// 8 MiB) and name index of that many relays.
	maxDocRelays = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode writes the matrix document. Every record is laid out in one
// reused buffer and written straight to w — no bufio, nothing allocated per
// tile — so a 7000-relay matrix's 250 MB document costs one 40 KB buffer.
func (m *Matrix) Encode(w io.Writer) error {
	n := len(m.names)
	if n > maxDocRelays {
		return fmt.Errorf("ting: %d relays, a matrix document holds at most %d", n, maxDocRelays)
	}
	le := binary.LittleEndian
	rec := make([]byte, 0, tileRecordSize)
	rec = fmt.Appendf(rec, "%s n=%d\n", docMagic, n)
	var crc uint32
	for _, name := range m.names {
		if len(rec)+4+len(name) > tileRecordSize {
			crc = crc32.Update(crc, castagnoli, rec)
			if _, err := w.Write(rec); err != nil {
				return err
			}
			rec = rec[:0]
		}
		rec = le.AppendUint32(rec, uint32(len(name)))
		rec = append(rec, name...)
	}
	rec = le.AppendUint32(rec, crc32.Update(crc, castagnoli, rec))
	if _, err := w.Write(rec); err != nil {
		return err
	}
	var count uint64
	rec = rec[:tileRecordSize]
	for ti, row := range m.tiles {
		for tj := ti; tj < len(row); tj++ {
			if t := row[tj]; t != nil && putTile(rec, ti, tj, t) {
				if _, err := w.Write(rec); err != nil {
					return err
				}
				count++
			}
		}
	}
	end := le.AppendUint32(rec[:0], endMark)
	end = le.AppendUint32(end, endMark)
	end = le.AppendUint64(end, count)
	end = le.AppendUint32(end, crc32.Checksum(end, castagnoli))
	_, err := w.Write(end)
	return err
}

// putTile lays tile (ti, tj) out as its record in rec and reports whether
// any of its cells is set; a tile with none has no record.
func putTile(rec []byte, ti, tj int, t *tile) bool {
	le := binary.LittleEndian
	le.PutUint32(rec, uint32(ti))
	le.PutUint32(rec[4:], uint32(tj))
	r, prov, conf := rec[8:], rec[8+8*tileCells:], rec[8+9*tileCells:]
	var set uint64
	for k, v := range t.r {
		bits := math.Float64bits(v)
		le.PutUint64(r[8*k:], bits)
		prov[k], conf[k] = byte(t.prov[k]), t.conf[k]
		set |= bits | uint64(t.prov[k]) | uint64(t.conf[k])
	}
	if set == 0 {
		return false
	}
	le.PutUint32(rec[tileRecordSize-4:], crc32.Checksum(rec[:tileRecordSize-4], castagnoli))
	return true
}

// WriteFile publishes the matrix document at path through wal.WriteFile:
// it encodes into a temporary file beside path, fsyncs it, renames it onto
// path and fsyncs the directory. A reader of path sees the old document or
// the new one, never part of either, and a failure before the rename
// returns its error and leaves path as it was, with no temporary file
// beside it. A failed directory fsync is reported after the rename, as
// wal.Log.Rewrite reports it: path holds the new document, which power
// loss could yet undo.
func (m *Matrix) WriteFile(path string) error { return wal.WriteFile(path, m.Encode) }

// DecodeMatrix reads the matrix document Encode writes. A malformed
// document is an explicit error, never a panic or a silent truncation: a
// matrix that decodes is structurally sound. It is refused on a bad header
// (the older text form included); an n under 2 or over maxDocRelays, before
// anything is sized from n; a CRC mismatch; a tile record out of order,
// repeated or outside the stored triangle; a record with no cell set; a set
// cell below the diagonal or past n; a non-finite value; an unknown
// provenance; an end record whose count disagrees with the records; a
// document cut anywhere, even at a record boundary; and bytes after the end
// record. Its cells decode exactly as written: value, provenance and
// confidence.
func DecodeMatrix(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadSlice('\n')
	head := string(line)
	switch {
	case len(head) == 0 && err == io.EOF:
		return nil, errors.New("ting: empty matrix document")
	case err != nil && err != io.EOF:
		return nil, fmt.Errorf("ting: matrix header: %w", err)
	}
	v, ok := strings.CutPrefix(head, docMagic+" n=")
	v, cut := strings.CutSuffix(v, "\n")
	n, err := strconv.Atoi(v)
	if !ok || !cut || err != nil || strconv.Itoa(n) != v {
		return nil, fmt.Errorf("ting: bad matrix header %q", head)
	}
	if n < 2 || n > maxDocRelays {
		return nil, fmt.Errorf("ting: matrix dimension %d, need 2 to %d", n, maxDocRelays)
	}
	names, crc, err := readNames(br, n, crc32.Checksum([]byte(head), castagnoli))
	if err != nil {
		return nil, err
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("ting: matrix names CRC: %w", err)
	}
	if binary.LittleEndian.Uint32(sum[:]) != crc {
		return nil, errors.New("ting: matrix names fail their CRC")
	}
	m, err := NewMatrix(names)
	if err != nil {
		return nil, err
	}
	if err := m.readTiles(br); err != nil {
		return nil, err
	}
	return m, nil
}

// readNames reads n length-prefixed names and folds their bytes into crc.
// A name's buffer grows with the bytes that arrive, a chunk at a time, not
// with the length its prefix claims.
func readNames(br *bufio.Reader, n int, crc uint32) ([]string, uint32, error) {
	var names []string
	var pre [4]byte
	var buf []byte
	for k := 0; k < n; k++ {
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			return nil, 0, fmt.Errorf("ting: matrix name %d: %w", k, err)
		}
		crc = crc32.Update(crc, castagnoli, pre[:])
		l := int(binary.LittleEndian.Uint32(pre[:]))
		buf = buf[:0]
		for len(buf) < l {
			at := len(buf)
			buf = slices.Grow(buf, min(l-at, 4096))[:at+min(l-at, 4096)]
			if _, err := io.ReadFull(br, buf[at:]); err != nil {
				return nil, 0, fmt.Errorf("ting: matrix name %d: %w", k, err)
			}
		}
		crc = crc32.Update(crc, castagnoli, buf)
		names = append(names, string(buf))
	}
	return names, crc, nil
}

// readTiles reads the tile records and the end record into m. A matrix
// being decoded was never cloned, so each decoded tile is installed as is:
// the one write of a tile that does not go through cellTile.
func (m *Matrix) readTiles(br *bufio.Reader) error {
	le := binary.LittleEndian
	n, tn := len(m.names), len(m.tiles)
	rec := make([]byte, tileRecordSize)
	var count uint64
	last := -1
	for {
		if _, err := io.ReadFull(br, rec[:8]); err != nil {
			return fmt.Errorf("ting: matrix document ends after %d tiles with no end record: %w", count, err)
		}
		ti, tj := le.Uint32(rec), le.Uint32(rec[4:])
		if ti == endMark && tj == endMark {
			return readEnd(br, rec[:endRecordSize], count)
		}
		if _, err := io.ReadFull(br, rec[8:]); err != nil {
			return fmt.Errorf("ting: matrix tile (%d,%d): %w", ti, tj, err)
		}
		if crc32.Checksum(rec[:tileRecordSize-4], castagnoli) != le.Uint32(rec[tileRecordSize-4:]) {
			return fmt.Errorf("ting: matrix tile (%d,%d) fails its CRC", ti, tj)
		}
		if ti > tj || tj >= uint32(tn) {
			return fmt.Errorf("ting: matrix tile (%d,%d) outside the triangle of %d tile bands", ti, tj, tn)
		}
		pos := int(ti)*tn + int(tj)
		if pos <= last {
			return fmt.Errorf("ting: matrix tile (%d,%d) out of order or repeated", ti, tj)
		}
		last = pos
		t, err := getTile(rec[8:tileRecordSize-4], int(ti), int(tj), n)
		if err != nil {
			return err
		}
		m.tiles[ti][tj] = t
		count++
	}
}

// getTile decodes the cells of tile (ti, tj)'s record, refusing what Encode
// never writes: a record with no cell set, and any cell checkCells refuses.
// Each array is filled in one tight pass; checkCells walks the cells one by
// one only for a tile that may hold such a cell: a diagonal or edge tile,
// or one a pass saw a non-finite value or an unknown provenance in.
func getTile(body []byte, ti, tj, n int) (*tile, error) {
	le := binary.LittleEndian
	t := new(tile)
	var set uint64
	finite, known := true, true
	for k := range t.r {
		bits := le.Uint64(body[8*k:])
		t.r[k] = math.Float64frombits(bits)
		set |= bits
		finite = finite && bits>>52&0x7ff != 0x7ff
	}
	copy(t.conf[:], body[9*tileCells:])
	for k, p := range body[8*tileCells : 9*tileCells] {
		t.prov[k] = Provenance(p)
		set |= uint64(p) | uint64(t.conf[k])
		known = known && Provenance(p) <= ProvPredicted
	}
	if set == 0 {
		return nil, fmt.Errorf("ting: matrix tile (%d,%d) has a record but no cell set", ti, tj)
	}
	if !finite || !known || ti == tj || (tj+1)<<TileShift > n {
		if err := checkCells(t, ti, tj, n); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// checkCells refuses the first cell of tile (ti, tj) that Encode never
// writes: a set cell outside the stored triangle (below a diagonal tile's
// diagonal, or past n in an edge tile), a non-finite value, or an unknown
// provenance.
func checkCells(t *tile, ti, tj, n int) error {
	rows, cols := min(n-ti<<TileShift, TileDim), min(n-tj<<TileShift, TileDim)
	for k, v := range t.r {
		a, b := k>>TileShift, k&tileMask
		i, j := ti<<TileShift|a, tj<<TileShift|b
		switch {
		case math.Float64bits(v) == 0 && t.prov[k] == ProvMissing && t.conf[k] == 0:
		case a >= rows || b >= cols || (ti == tj && a > b):
			return fmt.Errorf("ting: matrix cell (%d,%d) is set outside the triangle of n=%d", i, j, n)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("ting: matrix cell (%d,%d): non-finite value %v", i, j, v)
		case t.prov[k] > ProvPredicted:
			return fmt.Errorf("ting: matrix cell (%d,%d): unknown %v", i, j, t.prov[k])
		}
	}
	return nil
}

// readEnd checks the end record, whose mark end already holds, against the
// count of tiles read, and that nothing follows it.
func readEnd(br *bufio.Reader, end []byte, count uint64) error {
	le := binary.LittleEndian
	if _, err := io.ReadFull(br, end[8:]); err != nil {
		return fmt.Errorf("ting: matrix end record: %w", err)
	}
	if crc32.Checksum(end[:endRecordSize-4], castagnoli) != le.Uint32(end[endRecordSize-4:]) {
		return errors.New("ting: matrix end record fails its CRC")
	}
	if got := le.Uint64(end[8:]); got != count {
		return fmt.Errorf("ting: matrix end record counts %d tiles, the document holds %d", got, count)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing bytes after the end record")
		}
		return fmt.Errorf("ting: matrix document: %w", err)
	}
	return nil
}
