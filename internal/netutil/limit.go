// Package netutil bounds the servers' listeners. tingd's HTTP listener,
// the directory transport, the control ports and the debug listener
// (telemetry.Serve) accept through LimitListener, so none holds more than
// MaxConns open connections however many peers connect. serve.BinaryServer
// does not: it admits connections itself, up to the same MaxConns, so that
// one over the limit is answered statusOverloaded instead of waiting
// unanswered in the backlog.
package netutil

import (
	"net"
	"sync"
)

// MaxConns is the bound on open connections one listener serves: tingd's
// binary and HTTP listeners, the directory transport (which carries a
// campaign's CAMP verbs), each control-port listener and the debug
// listener behind -debug-addr (telemetry.Serve).
const MaxConns = 1024

// LimitListener bounds the connections accepted through ln to n open at a
// time. Past the bound Accept waits for an accepted connection to close, so
// a connection beyond it stays in the kernel's backlog, unanswered, until
// there is room.
func LimitListener(ln net.Listener, n int) net.Listener {
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
