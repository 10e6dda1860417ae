package link

import (
	"io"
	"time"
)

// StreamPipe returns a connected pair of in-process byte streams, the
// stream counterpart of a delayed Pipe: bytes written to a can be read from
// b aToB later, bytes written to b from a bToA later. Each Write is queued
// as one chunk, so writes in flight overlap like cells on a delayed link.
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
	// rest is what a short Read left of the chunk it took.
	rest []byte
}

func (s *streamHalf) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	chunk := append([]byte(nil), p...) // the caller may reuse p
	if err := s.out.put(&chunk); err != nil {
		if err == errPeerClosed {
			err = io.ErrClosedPipe
		}
		return 0, err
	}
	return len(p), nil
}

func (s *streamHalf) Read(p []byte) (int, error) {
	if len(s.rest) == 0 {
		if err := s.in.take(&s.rest); err != nil {
			if err == errPeerClosed {
				err = io.EOF
			}
			return 0, err
		}
	}
	n := copy(p, s.rest)
	s.rest = s.rest[n:]
	return n, nil
}

func (s *streamHalf) Close() error {
	s.close()
	return nil
}
