package link

import (
	"sync"
	"testing"

	"ting/internal/cell"
)

// tcpPair dials a loopback TCP link pair.
func tcpPair(t *testing.T) (client, server Link) {
	t.Helper()
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, _ = ln.Accept()
	}()
	client, err = TCPDialer{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// sendCell and recvCell adapt the pointer-based Link API to the by-value
// style the tests are written in.
func sendCell(lk Link, c cell.Cell) error { return lk.Send(&c) }

func recvCell(lk Link) (cell.Cell, error) {
	var c cell.Cell
	err := lk.Recv(&c)
	return c, err
}
