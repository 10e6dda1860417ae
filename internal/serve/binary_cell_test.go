package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"ting/internal/ting"
)

// oldCell is the cell-to-wire path as it was before Gather: three accessor
// calls and the confidence through a float and back.
func oldCell(out []byte, m *ting.Matrix, i, j int) []byte {
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(m.At(i, j)))
	conf := byte(0)
	switch c := m.ConfAt(i, j); {
	case c >= 1:
		conf = 255
	case c > 0:
		conf = byte(c*255 + 0.5)
	}
	return append(out, byte(m.ProvAt(i, j)), conf)
}

// batchBody is an rttBatchEx request body for flat index pairs.
func batchBody(pairs []uint32) []byte {
	body := binary.BigEndian.AppendUint32(nil, uint32(len(pairs)/2))
	for _, v := range pairs {
		body = binary.BigEndian.AppendUint32(body, v)
	}
	return body
}

// TestBatchReplyIsItsSingleCells pins the one cell-to-wire path: over random
// matrices — whole tiles never written, predicted cells at every odd
// confidence, requests on the diagonal — the body of an rttBatchEx reply is
// byte for byte the rttEx cells of its pairs one after another, and both are
// what At / ProvAt / ConfAt encode to the old way. A batch whose last index
// is out of range answers the error frame and not one byte of the cells
// gathered before it.
func TestBatchReplyIsItsSingleCells(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	base := time.Now().UnixNano()
	for r := 0; r < rounds; r++ {
		seed := base + int64(r)
		rng := rand.New(rand.NewSource(seed))
		n := ting.TileDim + 2 + rng.Intn(3*ting.TileDim)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("relay%03d", i)
		}
		m, err := ting.NewMatrix(names)
		if err != nil {
			t.Fatal(err)
		}
		// Writes stay below a cutoff, so the tiles past it stay unmaterialized.
		cutoff := 2 + rng.Intn(n-1)
		for w := 0; w < 4*n; w++ {
			i, j := rng.Intn(cutoff), rng.Intn(cutoff)
			if i == j {
				continue
			}
			if rng.Intn(2) == 0 {
				err = m.SetPredicted(names[i], names[j], float64(rng.Intn(4000))/8, float64(1+2*rng.Intn(128))/255)
			} else {
				if err = m.Set(names[i], names[j], float64(rng.Intn(4000))/8); err == nil {
					err = m.SetProv(names[i], names[j], ting.Provenance(rng.Intn(int(ting.ProvPredicted))))
				}
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		pub := NewPublisher(nil)
		if _, err := pub.Publish(m); err != nil {
			t.Fatal(err)
		}
		srv := NewBinaryServer(pub, nil)

		// Counts straddle the gather chunk: under it, exactly it, several.
		count := 1 + rng.Intn(4*gatherChunk)
		pairs := make([]uint32, 0, 2*count)
		for k := 0; k < count; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if rng.Intn(8) == 0 {
				j = i
			}
			pairs = append(pairs, uint32(i), uint32(j))
		}
		reply := srv.handle(opRTTBatchEx, batchBody(pairs), nil)
		head := binary.BigEndian.AppendUint64([]byte{opRTTBatchEx | respFlag, statusOK}, 1)
		if !bytes.HasPrefix(reply, head) || len(reply) != len(head)+10*count {
			t.Fatalf("seed %d: %d-pair batch reply is %d bytes starting % x", seed, count, len(reply), reply[:min(len(reply), 10)])
		}
		var singles, old []byte
		for k := 0; k < count; k++ {
			i, j := int(pairs[2*k]), int(pairs[2*k+1])
			single := srv.handle(opRTTEx, appendString16(appendString16(nil, names[i]), names[j]), nil)
			if len(single) != 20 || single[1] != statusOK {
				t.Fatalf("seed %d: rttEx (%d,%d) reply % x", seed, i, j, single)
			}
			singles = append(singles, single[10:]...)
			old = oldCell(old, m, i, j)
		}
		if cells := reply[len(head):]; !bytes.Equal(cells, singles) || !bytes.Equal(cells, old) {
			for k := 0; k < count; k++ {
				b, s, o := cells[10*k:10*k+10], singles[10*k:10*k+10], old[10*k:10*k+10]
				if !bytes.Equal(b, s) || !bytes.Equal(b, o) {
					t.Fatalf("seed %d: cell %d (%d,%d): batch % x, single % x, old way % x", seed, k, pairs[2*k], pairs[2*k+1], b, s, o)
				}
			}
		}

		bad := [2]uint32{uint32(rng.Intn(n)), uint32(n + rng.Intn(3))}
		if rng.Intn(2) == 0 {
			bad[0], bad[1] = bad[1], bad[0]
		}
		pairs[2*count-2], pairs[2*count-1] = bad[0], bad[1]
		want := appendErr(nil, opRTTBatchEx, statusOutOfRange, fmt.Sprintf("index (%d,%d) outside %d relays", bad[0], bad[1], n))
		if reply := srv.handle(opRTTBatchEx, batchBody(pairs), nil); !bytes.Equal(reply, want) {
			t.Fatalf("seed %d: %d pairs, the last out of range: %d-byte reply % x, want only the error frame % x",
				seed, count, len(reply), reply[:min(len(reply), 24)], want)
		}
	}
}

// benchServer serves a fully measured n-relay matrix, and pool holds
// rttBatchEx bodies of 512 random pairs each — the serve workload's shape.
func benchServer(tb testing.TB, n, pool int) (*BinaryServer, [][]byte) {
	tb.Helper()
	pub := NewPublisher(nil)
	if _, err := pub.Publish(testMatrix(tb, n)); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, pool)
	for b := range bodies {
		pairs := make([]uint32, 2*512)
		for k := range pairs {
			pairs[k] = uint32(rng.Intn(n))
		}
		bodies[b] = batchBody(pairs)
	}
	return NewBinaryServer(pub, nil), bodies
}

// TestHandleDoesNotAllocate guards the lookup path's allocation-free reply:
// in particular the batch op's gather scratch has to stay on handle's stack.
func TestHandleDoesNotAllocate(t *testing.T) {
	srv, bodies := benchServer(t, 70, 1)
	single := appendString16(appendString16(nil, "relay03"), "relay69")
	out := make([]byte, 0, 16<<10)
	for _, tc := range []struct {
		name string
		op   byte
		body []byte
	}{{"rttEx", opRTTEx, single}, {"rttBatchEx", opRTTBatchEx, bodies[0]}} {
		if out = srv.handle(tc.op, tc.body, out[:0]); out[1] != statusOK {
			t.Fatalf("%s: status %d", tc.name, out[1])
		}
		if allocs := testing.AllocsPerRun(200, func() { out = srv.handle(tc.op, tc.body, out[:0]) }); allocs != 0 {
			t.Errorf("%s: handle allocates %v times a request, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkHandleBatch is the batch lookup without sockets: 512 random cells
// of a full 1000-relay matrix (10 MB, so a cell is a cache miss) per request.
func BenchmarkHandleBatch(b *testing.B) {
	srv, bodies := benchServer(b, 1000, 64)
	out := make([]byte, 0, 16<<10)
	for i := 0; b.Loop(); i++ {
		out = srv.handle(opRTTBatchEx, bodies[i%len(bodies)], out[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/512, "ns/cell")
}
