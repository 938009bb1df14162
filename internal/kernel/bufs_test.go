package kernel

import (
	"bytes"
	"testing"
)

func TestBufsRecyclesBySizeClass(t *testing.T) {
	var f Bufs
	for _, n := range []int{0, 1, 20, 64, 65, 1500, 4096, 64 << 10, 64<<10 + 1, 1 << 20} {
		b := f.Get(n)
		if len(b) != n || cap(b) < n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(b), cap(b))
		}
		f.Put(b)
		// Anything of the same class comes back as the same memory, at
		// whatever length is asked for.
		if c := f.Get(cap(b)); &c[:1][0] != &b[:1][0] {
			t.Errorf("Get(%d) after Put(%d) allocated afresh", cap(b), n)
		}
	}
	// Two holders never share: the list hands a buffer out once per Put.
	a, b := f.Get(1500), f.Get(1500)
	f.Put(a)
	if c, d := f.Get(1500), f.Get(1500); &c[0] != &a[0] || &d[0] == &b[0] || &d[0] == &a[0] {
		t.Error("a buffer was handed out twice")
	}
}

func TestBufsForeignAndOversizeBuffers(t *testing.T) {
	var f Bufs
	// A buffer the list did not make is filed under the class it can
	// serve in full.
	foreign := make([]byte, 1500)
	f.Put(foreign)
	if b := f.Get(1024); &b[0] != &foreign[0] {
		t.Error("a 1500-byte buffer does not serve a 1024-byte request")
	}
	f.Put(foreign)
	if b := f.Get(1500); &b[0] == &foreign[0] {
		t.Error("a 1500-byte buffer was handed out for the 2048 class")
	}
	// Beyond the largest class the list neither serves nor keeps.
	huge := f.Get(2 << 20)
	f.Put(huge)
	if b := f.Get(1 << 20); &b[0] == &huge[0] {
		t.Error("an oversize buffer was retained")
	}
	f.Put(nil)
	f.Put(make([]byte, 8))
}

func TestBufsPoisonsWhatItTakesBack(t *testing.T) {
	poisonFreed = true
	defer func() { poisonFreed = false }()
	var f Bufs
	b := f.Get(100)
	for i := range b {
		b[i] = 1
	}
	f.Put(b)
	if want := bytes.Repeat([]byte{0xDB}, cap(b)); !bytes.Equal(b[:cap(b)], want) {
		t.Fatalf("released buffer reads % x…", b[:8])
	}
}
