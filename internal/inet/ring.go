package inet

import "resilientos/internal/kernel"

// ring is one direction's window of a connection: a FIFO of bytes in a
// buffer of fixed power-of-two size taken from the system's free list on
// its first byte and put back when the direction ends (release). Bytes
// held never move; the consumer only advances head.
type ring struct {
	buf  []byte // nil until the first push; len is a power of two
	head int    // index in buf of the oldest byte held
	n    int    // bytes held
}

// push appends p, taking a buffer of size bytes from bufs if the ring has
// none and p is not empty. The caller has checked that the bytes held
// plus p fit in size.
func (r *ring) push(bufs *kernel.Bufs, size int, p []byte) {
	if len(p) == 0 {
		return
	}
	if r.buf == nil {
		r.buf = bufs.Get(size)
	}
	tail := (r.head + r.n) & (len(r.buf) - 1)
	k := copy(r.buf[tail:], p)
	copy(r.buf, p[k:])
	r.n += len(p)
}

// discard drops the n oldest bytes.
func (r *ring) discard(n int) {
	r.head = (r.head + n) & (len(r.buf) - 1)
	r.n -= n
}

// read copies the len(dst) bytes that start off bytes past the oldest
// into dst, in two pieces where they wrap.
func (r *ring) read(dst []byte, off int) {
	i := (r.head + off) & (len(r.buf) - 1)
	k := copy(dst, r.buf[i:])
	copy(dst[k:], r.buf)
}

// release puts the buffer back on bufs. The ring is empty afterwards and
// takes a fresh buffer if pushed to again.
func (r *ring) release(bufs *kernel.Bufs) {
	if r.buf != nil {
		bufs.Put(r.buf)
	}
	*r = ring{}
}
