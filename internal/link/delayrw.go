package link

import (
	"io"
	"sync"
	"time"
)

// DelayedRW wraps a byte stream so writes arrive sendDelay later and reads
// surface recvDelay after the peer wrote them — the byte-stream counterpart
// of Delayed, used for exit-relay connections to destinations.
func DelayedRW(inner io.ReadWriteCloser, sendDelay, recvDelay time.Duration) io.ReadWriteCloser {
	d := &delayedRW{
		inner:  inner,
		sendQ:  make(chan *timedBytes, queueCap),
		recvQ:  make(chan *timedBytes, queueCap),
		closed: make(chan struct{}),
	}
	d.sendDelay = sendDelay
	d.recvDelay = recvDelay
	go d.sendPump()
	go d.recvPump()
	return d
}

// timedBytes is one queued chunk (inbound, possibly with the read error
// that ended the stream) and the instant it is due. The queues hold
// pointers to pooled entries for the same reason the cell queues of
// Delayed do; only the entry is recycled, never the bytes it points at.
type timedBytes struct {
	b   []byte
	err error
	due time.Time
}

var timedChunks = sync.Pool{New: func() any { return new(timedBytes) }}

func newTimedBytes(b []byte, err error, delay time.Duration) *timedBytes {
	tb := timedChunks.Get().(*timedBytes)
	*tb = timedBytes{b: b, err: err, due: time.Now().Add(delay)}
	return tb
}

// release returns a dequeued entry to the pool and hands back its fields.
func (tb *timedBytes) release() (b []byte, due time.Time, err error) {
	b, due, err = tb.b, tb.due, tb.err
	*tb = timedBytes{}
	timedChunks.Put(tb)
	return
}

type delayedRW struct {
	inner     io.ReadWriteCloser
	sendDelay time.Duration
	recvDelay time.Duration

	sendQ chan *timedBytes
	recvQ chan *timedBytes

	mu       sync.Mutex
	leftover []byte

	closeOnce sync.Once
	closed    chan struct{}
}

func (d *delayedRW) Write(p []byte) (int, error) {
	cp := append([]byte(nil), p...)
	select {
	case <-d.closed:
		return 0, ErrClosed
	default:
	}
	tb := newTimedBytes(cp, nil, d.sendDelay)
	select {
	case <-d.closed:
		tb.release()
		return 0, ErrClosed
	case d.sendQ <- tb:
		return len(p), nil
	}
}

func (d *delayedRW) sendPump() {
	for {
		select {
		case <-d.closed:
			return
		case tb := <-d.sendQ:
			b, due, _ := tb.release()
			sleepUntil(due, d.closed)
			if _, err := d.inner.Write(b); err != nil {
				return
			}
		}
	}
}

func (d *delayedRW) recvPump() {
	buf := make([]byte, 32*1024)
	for {
		n, err := d.inner.Read(buf)
		var cp []byte
		if n > 0 {
			cp = append([]byte(nil), buf[:n]...)
		}
		tb := newTimedBytes(cp, err, d.recvDelay)
		select {
		case <-d.closed:
			tb.release()
			return
		case d.recvQ <- tb:
		}
		if err != nil {
			return
		}
	}
}

func (d *delayedRW) Read(p []byte) (int, error) {
	d.mu.Lock()
	if len(d.leftover) > 0 {
		n := copy(p, d.leftover)
		d.leftover = d.leftover[n:]
		d.mu.Unlock()
		return n, nil
	}
	d.mu.Unlock()

	select {
	case <-d.closed:
		return 0, ErrClosed
	case tb := <-d.recvQ:
		b, due, err := tb.release()
		if err != nil && len(b) == 0 {
			return 0, err
		}
		sleepUntil(due, d.closed)
		n := copy(p, b)
		if n < len(b) {
			d.mu.Lock()
			d.leftover = b[n:]
			d.mu.Unlock()
		}
		return n, nil
	}
}

func (d *delayedRW) Close() error {
	var err error
	d.closeOnce.Do(func() {
		close(d.closed)
		err = d.inner.Close()
	})
	return err
}
