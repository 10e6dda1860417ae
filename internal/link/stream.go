package link

import (
	"io"
	"time"

	"ting/internal/cell"
)

// StreamPipe returns a connected pair of in-process byte streams, the
// stream counterpart of a delayed Pipe: bytes written to a can be read from
// b aToB later, bytes written to b from a bToA later. A Write is queued as
// chunks of at most one relay cell's data, so writes in flight overlap like
// cells on a delayed link. Chunks are pooled cell buffers (cell.GetBuf):
// Write fills them, and Read returns each one once it has read it all.
// Read and Write may be used concurrently with each other; Read may not be
// called concurrently with itself.
//
// Closing an end fails its own pending and later calls with ErrClosed; the
// other end reads what was already written, then io.EOF, and its writes
// fail with io.ErrClosedPipe.
func StreamPipe(aToB, bToA time.Duration) (a, b io.ReadWriteCloser) {
	ea, eb := newEnds[[]byte](queueCap, aToB, bToA)
	return &streamHalf{ends: ea}, &streamHalf{ends: eb}
}

type streamHalf struct {
	ends[[]byte]
	// chunk is what a short Read left unread, from off on.
	chunk []byte
	off   int
}

func (s *streamHalf) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		// The caller may reuse p: the bytes go into a buffer the queue owns.
		chunk := cell.GetBuf()
		chunk = append(chunk, p[written:min(len(p), written+cap(chunk))]...)
		if err := s.out.put(&chunk); err != nil {
			cell.PutBuf(chunk)
			if err == errPeerClosed {
				err = io.ErrClosedPipe
			}
			return written, err
		}
		written += len(chunk)
	}
	return written, nil
}

func (s *streamHalf) Read(p []byte) (int, error) {
	if s.chunk == nil {
		if err := s.in.take(&s.chunk); err != nil {
			if err == errPeerClosed {
				err = io.EOF
			}
			return 0, err
		}
		s.off = 0
	}
	n := copy(p, s.chunk[s.off:])
	s.off += n
	if s.off == len(s.chunk) {
		cell.PutBuf(s.chunk)
		s.chunk = nil
	}
	return n, nil
}

func (s *streamHalf) Close() error {
	s.close()
	return nil
}
