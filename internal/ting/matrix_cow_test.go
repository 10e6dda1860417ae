package ting

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// oracle is the dense-map reference model of a Matrix: names plus the cells
// ever written, everything else zero / ProvMissing / confidence 0. It knows
// nothing of tiles, sharing or marks, so a Clone of it is a plain deep copy.
type oracle struct {
	names []string
	cells map[[2]int]Cell
}

func (o *oracle) clone() *oracle {
	cp := &oracle{names: append([]string(nil), o.names...), cells: make(map[[2]int]Cell, len(o.cells))}
	for k, c := range o.cells {
		cp.cells[k] = c
	}
	return cp
}

// update applies f to both directions of pair (i, j), as every setter does.
func (o *oracle) update(i, j int, f func(*Cell)) {
	for _, k := range [][2]int{{i, j}, {j, i}} {
		c := o.cells[k]
		f(&c)
		o.cells[k] = c
	}
}

// dense lays the oracle out as the row-major cells Gather must report: the
// diagonal fully trusted, whatever was stored there.
func (o *oracle) dense() []Cell {
	n := len(o.names)
	want := make([]Cell, n*n)
	for k, c := range o.cells {
		want[k[0]*n+k[1]] = c
	}
	for i := 0; i < n; i++ {
		want[i*n+i].Conf = 255
	}
	return want
}

// encodeDense is the published document written straight from dense cells.
func encodeDense(names []string, want []Cell) []byte {
	n := len(names)
	b := fmt.Appendf(nil, "tingmatrix n=%d\n", n)
	for i, name := range names {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, name...)
	}
	b = append(b, '\n')
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendFloat(b, want[i*n+j].RTT, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c := want[i*n+j]; c.Prov == ProvPredicted {
				b = fmt.Appendf(b, "pred %d %d %d\n", i, j, c.Conf)
			}
		}
	}
	return b
}

// mirrored is a matrix under test beside its oracle, and what the oracle
// says the matrix must read as — derived when the oracle last changed, so a
// step re-derives it for the one matrix it wrote.
type mirrored struct {
	m    *Matrix
	o    *oracle
	want []Cell
	doc  []byte
}

func mirror(m *Matrix, o *oracle) *mirrored {
	p := &mirrored{m: m, o: o}
	p.derive()
	return p
}

func (p *mirrored) derive() {
	p.want = p.o.dense()
	p.doc = encodeDense(p.o.names, p.want)
}

// check compares every cell of m with the oracle through each read path:
// At / ProvAt / ConfAt, one Gather over the whole matrix, and Encode.
func (p *mirrored) check(idx []uint32, got []Cell, doc *bytes.Buffer) error {
	n := len(p.o.names)
	if p.m.N() != n {
		return fmt.Errorf("N = %d, oracle has %d", p.m.N(), n)
	}
	for i, name := range p.o.names {
		if k, ok := p.m.Index(name); !ok || k != i || p.m.Names()[i] != name {
			return fmt.Errorf("name %d %q resolves to %d, %v", i, name, k, ok)
		}
	}
	idx, got = idx[:0], got[:n*n]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			idx = append(idx, uint32(i), uint32(j))
			w := p.want[i*n+j]
			if r, pr, c := p.m.At(i, j), p.m.ProvAt(i, j), p.m.ConfAt(i, j); r != w.RTT || pr != w.Prov || c != float64(w.Conf)/255 {
				return fmt.Errorf("cell (%d,%d) reads %v %v %v, oracle %+v", i, j, r, pr, c, w)
			}
		}
	}
	if k := p.m.Gather(idx, got); k != n*n {
		return fmt.Errorf("Gather stopped at pair %d of %d in-range pairs", k, n*n)
	}
	for k, w := range p.want {
		if got[k] != w {
			return fmt.Errorf("Gather cell (%d,%d) = %+v, oracle %+v", k/n, k%n, got[k], w)
		}
	}
	doc.Reset()
	if err := p.m.Encode(doc); err != nil {
		return err
	}
	if !bytes.Equal(doc.Bytes(), p.doc) {
		return fmt.Errorf("Encode differs from the oracle's document")
	}
	return nil
}

// TestMatrixCloneProperty drives families of matrices that share tiles
// through random Set / SetProv / SetPredicted / AddName / Clone sequences,
// each matrix beside a dense-map oracle, and after every step compares every
// live matrix with its oracle cell by cell. A write that reaches a tile
// another matrix still points at shows up as that matrix leaving its
// oracle. Sizes start just under a tile boundary so AddName crosses it with
// marks set.
//
// One goroutine runs it, so the race detector has nothing to find here and
// makes the cell-by-cell comparison twelve times slower: under -race, as
// under -short, it runs 30 sequences instead of 200.
// TestMatrixCloneReadersVsWriter is the test the race detector is for.
func TestMatrixCloneProperty(t *testing.T) {
	sequences, steps := 200, 12
	if testing.Short() || raceEnabled {
		sequences = 30
	}
	const maxN = TileDim + 6
	idx := make([]uint32, 0, 2*maxN*maxN)
	got := make([]Cell, maxN*maxN)
	var doc bytes.Buffer
	base := time.Now().UnixNano()
	for s := 0; s < sequences; s++ {
		seed := base + int64(s)
		rng := rand.New(rand.NewSource(seed))
		n := TileDim - 3 + rng.Intn(5)
		m, err := NewMatrix(tileNames(n))
		if err != nil {
			t.Fatal(err)
		}
		family := []*mirrored{mirror(m, &oracle{names: tileNames(n), cells: map[[2]int]Cell{}})}
		for step := 0; step < steps; step++ {
			p := family[rng.Intn(len(family))]
			n := len(p.o.names)
			i, j := rng.Intn(n), rng.Intn(n)
			x, y := p.o.names[i], p.o.names[j]
			var op string
			switch k := rng.Intn(10); {
			case k < 3:
				v := float64(rng.Intn(1000)) / 4
				op = fmt.Sprintf("Set(%d,%d,%v)", i, j, v)
				err = p.m.Set(x, y, v)
				p.o.update(i, j, func(c *Cell) { *c = Cell{v, ProvFresh, 255} })
			case k < 5:
				prov := Provenance(rng.Intn(int(ProvPredicted)))
				op = fmt.Sprintf("SetProv(%d,%d,%v)", i, j, prov)
				err = p.m.SetProv(x, y, prov)
				p.o.update(i, j, func(c *Cell) {
					c.Prov, c.Conf = prov, 0
					if prov == ProvFresh || prov == ProvResumed {
						c.Conf = 255
					}
				})
			case k < 7:
				if i == j {
					continue
				}
				v, q := float64(rng.Intn(1000))/4, rng.Intn(256)
				op = fmt.Sprintf("SetPredicted(%d,%d,%v,%d/255)", i, j, v, q)
				err = p.m.SetPredicted(x, y, v, float64(q)/255)
				p.o.update(i, j, func(c *Cell) { *c = Cell{v, ProvPredicted, uint8(q)} })
			case k < 8:
				if n == maxN {
					continue
				}
				name := fmt.Sprintf("r%03d", n)
				op = "AddName(" + name + ")"
				err = p.m.AddName(name)
				p.o.names = append(p.o.names, name)
			default:
				op = "Clone"
				cp := mirror(p.m.Clone(), p.o.clone())
				if len(family) < 4 {
					family = append(family, cp)
				} else {
					// Dropping a matrix must not free a tile another still reads.
					family[rng.Intn(len(family))] = cp
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
			p.derive()
			for k, q := range family {
				if err := q.check(idx, got, &doc); err != nil {
					t.Fatalf("seed %d step %d, after %s: matrix %d of %d: %v", seed, step, op, k, len(family), err)
				}
			}
		}
	}
}

// TestMatrixCloneReadersVsWriter is the serving plane's use of Clone under
// the race detector: readers hammer a clone — as requests hammer a published
// epoch — while the source they were cloned from is overwritten tile by
// tile. The clone must keep reading the values it was cloned with, and no
// read may race with a write: a tile reachable from the clone is never
// written.
func TestMatrixCloneReadersVsWriter(t *testing.T) {
	const n = 2*TileDim + 2 // a 3×3 grid, ragged at the edge
	names := tileNames(n)
	src, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	val := func(i, j int) float64 { return float64(1 + i*j + i + j) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := src.Set(names[i], names[j], val(i, j)); err != nil {
				t.Fatal(err)
			}
			if err := src.SetProv(names[i], names[j], ProvFresh); err != nil {
				t.Fatal(err)
			}
		}
	}
	published := src.Clone()

	var wg sync.WaitGroup
	var passes atomic.Int64 // chunks the readers have checked
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var idx [128]uint32
			var cells [64]Cell
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := range idx {
					idx[k] = uint32(rng.Intn(n))
				}
				published.Gather(idx[:], cells[:])
				for k, c := range cells {
					i, j := int(idx[2*k]), int(idx[2*k+1])
					want := Cell{val(i, j), ProvFresh, 255}
					if i == j {
						want = Cell{Conf: 255}
					}
					if c != want || published.At(i, j) != want.RTT {
						t.Errorf("published cell (%d,%d) = %+v / %v, want %+v", i, j, c, published.At(i, j), want)
						return
					}
				}
				passes.Add(1)
			}
		}(int64(g))
	}
	// Tile by tile, and each tile only once the readers have come round
	// again, so every tile is copied and overwritten with readers inside it.
	for ti := 0; ti < n; ti += TileDim {
		for tj := ti; tj < n; tj += TileDim {
			for seen := passes.Load(); passes.Load() < seen+8 && !t.Failed(); {
				runtime.Gosched()
			}
			for i := ti; i < min(ti+TileDim, n); i++ {
				for j := max(tj, i+1); j < min(tj+TileDim, n); j++ {
					if err := src.Set(names[i], names[j], -1); err != nil {
						t.Fatal(err)
					}
					if err := src.SetProv(names[i], names[j], ProvRemoved); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if got := src.At(1, n-1); got != -1 {
		t.Errorf("source cell reads %v after being overwritten with -1", got)
	}
}
