package serve

import (
	"net"
	"sync"
)

// LimitListener bounds the connections accepted through ln to connLimit
// open at a time, the binary listener's bound, for a server that has no cap
// of its own (tingd's http.Server). Past the bound Accept waits for an
// accepted connection to close, so a connection beyond it stays in the
// kernel's backlog, unanswered, until there is room.
func LimitListener(ln net.Listener) net.Listener { return limitListener(ln, connLimit) }

func limitListener(ln net.Listener, n int) net.Listener {
	return &limitedListener{Listener: ln, slots: make(chan struct{}, n), closed: make(chan struct{})}
}

type limitedListener struct {
	net.Listener
	slots     chan struct{} // one token per open accepted connection
	closed    chan struct{} // closed by Close, so a waiting Accept gives up
	closeOnce sync.Once
}

func (l *limitedListener) Accept() (net.Conn, error) {
	select {
	case l.slots <- struct{}{}:
	case <-l.closed:
		return nil, net.ErrClosed
	}
	conn, err := l.Listener.Accept()
	if err != nil {
		<-l.slots
		return nil, err
	}
	return &limitedConn{Conn: conn, release: func() { <-l.slots }}, nil
}

func (l *limitedListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return l.Listener.Close()
}

// limitedConn gives its slot back on its first Close.
type limitedConn struct {
	net.Conn
	once    sync.Once
	release func()
}

func (c *limitedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}
