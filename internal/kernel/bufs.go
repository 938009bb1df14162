package kernel

import "math/bits"

// Bufs is the system's free list of bulk byte buffers — file-read
// replies, TCP frames, socket-read replies — in power-of-two size
// classes. A buffer has one owner at a time: whoever Gets it fills it
// and passes it on in a message, and the last receiver, having copied
// the bytes into memory it already holds, Puts it back. A buffer whose
// holder is killed is never put back; it is garbage like any other.
//
// Every process of a system is a coroutine of one sim.Env, so exactly
// one of them runs at any instant: the list needs no lock, and which
// buffer a Get returns — hence how much a run allocates — is a function
// of the seed. (A sync.Pool would be neither.)
type Bufs struct {
	free [bufClasses][][]byte // free[c] holds buffers of capacity >= 1<<c
}

const (
	bufMinClass = 6  // 64 B: a bare TCP header rounds up to this
	bufClasses  = 21 // up to 1 MiB; larger requests bypass the list
)

// poisonFreed makes Put overwrite every buffer it takes back, so that a
// reader of released memory computes a wrong digest instead of a right
// one by luck. Tests only; they reach it through their export_test.go.
var poisonFreed bool

// Get returns a buffer of length n with arbitrary contents.
func (f *Bufs) Get(n int) []byte {
	c := bufMinClass
	if n > 1<<bufMinClass {
		c = bits.Len(uint(n - 1))
	}
	if c >= bufClasses {
		return make([]byte, n)
	}
	if l := f.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		f.free[c] = l[:len(l)-1]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// Put takes back a buffer the caller owns and will not touch again.
func (f *Bufs) Put(b []byte) {
	c := bits.Len(uint(cap(b))) - 1
	if c < bufMinClass || c >= bufClasses {
		return
	}
	b = b[:cap(b)]
	if poisonFreed {
		for i := range b {
			b[i] = 0xDB
		}
	}
	f.free[c] = append(f.free[c], b)
}
