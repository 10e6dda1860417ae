package cell

import "sync"

// The data pool recycles the relay-cell data buffers that would dominate
// the overlay's per-cell heap traffic: UnmarshalPayload needs one for every
// decrypted cell. Buffers are full-capacity RelayDataLen arrays, so any
// relay cell's data fits without growing.
var dataPool = sync.Pool{
	New: func() any { return new([RelayDataLen]byte) },
}

// GetBuf returns an empty buffer with capacity RelayDataLen from the pool.
// Returning it with PutBuf is advisory: a buffer that escapes (retained by
// a handshake, sliced into a leftover) is simply collected as garbage.
func GetBuf() []byte {
	return dataPool.Get().(*[RelayDataLen]byte)[:0]
}

// PutBuf recycles a buffer obtained from GetBuf. Only call it from a site
// that owns b exclusively — after the data has been copied onward and no
// other goroutine can still read it. Buffers that have lost their original
// backing array (cap < RelayDataLen, e.g. a mid-buffer subslice) are
// silently dropped.
func PutBuf(b []byte) {
	if cap(b) < RelayDataLen {
		return
	}
	dataPool.Put((*[RelayDataLen]byte)(b[:RelayDataLen]))
}
