package inet

import (
	"bytes"
	"testing"

	"resilientos/internal/kernel"
	"resilientos/internal/sim"
)

// FuzzRingMatchesSlice runs a script of pushes, discards and reads at an
// offset against a 64-byte ring and a plain []byte FIFO; every read must
// return the FIFO's bytes. Each script byte picks an operation, the next
// one its size or offset, so short scripts already run the ring's head
// and tail past the wrap point.
func FuzzRingMatchesSlice(f *testing.F) {
	f.Add([]byte{0, 60, 1, 50, 0, 40, 2, 0, 30})          // push, discard, push across the end, read across it
	f.Add([]byte{0, 64, 2, 10, 50, 1, 64, 3, 0, 1, 2, 0}) // fill, read, drain, release, refill
	f.Add([]byte{0, 33, 1, 33, 0, 63, 2, 62, 1, 1, 31, 2, 5, 9})
	f.Fuzz(func(t *testing.T, script []byte) {
		const size = 64
		var bufs kernel.Bufs
		var r ring
		var fifo []byte
		next := byte(0) // the stream's next byte: every pushed byte differs from its neighbours
		arg := func(i int) int {
			if i < len(script) {
				return int(script[i])
			}
			return 0
		}
		for i := 0; i < len(script); i += 2 {
			switch script[i] % 4 {
			case 0: // push
				p := make([]byte, arg(i+1)%(size-len(fifo)+1))
				for j := range p {
					p[j] = next
					next++
				}
				r.push(&bufs, size, p)
				fifo = append(fifo, p...)
			case 1: // discard
				n := arg(i+1) % (len(fifo) + 1)
				r.discard(n)
				fifo = fifo[n:]
			case 2: // read n bytes at off
				off := arg(i+1) % (len(fifo) + 1)
				n := arg(i+2) % (len(fifo) - off + 1)
				i++
				got := make([]byte, n)
				r.read(got, off)
				if !bytes.Equal(got, fifo[off:off+n]) {
					t.Fatalf("step %d: read(%d, %d) = % x, want % x", i, n, off, got, fifo[off:off+n])
				}
			case 3: // release once drained, as a finished direction does
				if len(fifo) == 0 {
					r.release(&bufs)
				}
			}
			if r.n != len(fifo) {
				t.Fatalf("step %d: ring holds %d bytes, FIFO %d", i, r.n, len(fifo))
			}
			if r.buf != nil && len(r.buf) != size {
				t.Fatalf("step %d: ring buffer is %d bytes, want %d", i, len(r.buf), size)
			}
		}
	})
}

// TestDrainOooFoldsLowestSeqFirst parks two overlapping segments past
// rcvNxt 1000, [950,1200) of 'a' and [1000,1300) of 'b', with room for
// 100 bytes in the receive window. The fold must take the lowest seq
// first and keep both parked, and once the reader frees the window the
// next fold must take the rest of 'a' before 'b' — the same way every
// time.
func TestDrainOooFoldsLowestSeqFirst(t *testing.T) {
	k := kernel.New(sim.NewEnv(1))
	ctx, err := k.Spawn("inet", kernel.Privileges{}, func(*kernel.Ctx) {})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{ctx: ctx}
	held := func(c *tcpConn, off, n int) string {
		b := make([]byte, n)
		c.rcv.read(b, off)
		return string(b)
	}
	for i := 0; i < 200; i++ {
		c := &tcpConn{rcvNxt: 1000}
		c.rcv.push(ctx.Bufs(), rcvBufLimit, make([]byte, rcvBufLimit-100))
		c.park(1000, bytes.Repeat([]byte("b"), 300))
		c.park(950, bytes.Repeat([]byte("a"), 250))
		s.drainOoo(c)
		if c.rcvNxt != 1100 || held(c, rcvBufLimit-100, 100) != string(bytes.Repeat([]byte("a"), 100)) {
			t.Fatalf("fold %d: rcvNxt %d, took %q…", i, c.rcvNxt, held(c, rcvBufLimit-100, 8))
		}
		if len(c.ooo) != 2 || c.ooo[0].seq != 950 || c.ooo[1].seq != 1000 {
			t.Fatalf("fold %d: parked %v, want [950 1000]", i, c.ooo)
		}
		c.rcv.discard(c.rcv.n) // the reader takes everything
		s.drainOoo(c)
		want := string(bytes.Repeat([]byte("a"), 100)) + string(bytes.Repeat([]byte("b"), 100))
		if c.rcvNxt != 1300 || c.rcv.n != 200 || held(c, 0, 200) != want || len(c.ooo) != 0 {
			t.Fatalf("refold %d: rcvNxt %d, %d bytes, %d parked", i, c.rcvNxt, c.rcv.n, len(c.ooo))
		}
	}
}
