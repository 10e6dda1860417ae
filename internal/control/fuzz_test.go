package control

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
)

// FuzzConnReplies plays arbitrary bytes as a control port's replies: the
// peer drains every request, writes the bytes and hangs up. ExtendCircuit
// and GetInfo never panic and always return, and the error that ends the
// Conn names maxLine exactly when a reply line reaches it. (A "250+" body
// over maxReplyBody is larger than fuzz inputs grow;
// TestConnRefusesEndlessBody holds that bound.)
func FuzzConnReplies(f *testing.F) {
	f.Add([]byte("250 EXTENDED 7\r\n250+ns/all=\r\nrelay a\r\n.\r\n250 OK\r\n"))
	f.Add([]byte("250 EXTENDED x\r\n552 unknown key\r\n"))
	f.Add([]byte("250+\r\n.\r\n.\r\n250 OK\r\n250 OK"))
	f.Add([]byte("25"))
	f.Fuzz(func(t *testing.T, replies []byte) {
		client, peer := net.Pipe()
		go io.Copy(io.Discard, peer)
		go func() {
			peer.Write(replies)
			peer.Close()
		}()
		c := NewConn(client)
		defer c.Close()
		c.ExtendCircuit([]string{"r0", "r1"})
		// Each request reads at least one line, so asking on until the
		// Conn ends by itself reaches the bytes' own end, not the
		// deferred Close.
		for c.err == nil {
			c.GetInfo("ns/all")
		}
		long := slices.ContainsFunc(bytes.Split(replies, []byte("\n")), func(line []byte) bool { return len(line) >= maxLine })
		if named := strings.Contains(c.err.Error(), fmt.Sprint(maxLine)); long != named {
			t.Fatalf("a line of %d bytes or more: %v; the Conn ended with %q", maxLine, long, c.err)
		}
	})
}
