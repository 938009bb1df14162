package resilientos

import (
	"crypto/sha1"
	"encoding/binary"
	"hash"
)

// useSHANI selects the SHA-extensions block function for newSHA1. It is
// set once from CPUID; a test turns it off to run crypto/sha1 on the same
// host.
var useSHANI = hasSHANI()

// hasSHANI reports whether the CPU has the SHA extensions (leaf 7 EBX bit
// 29) and the SSSE3 (PSHUFB) and SSE4.1 (PINSRD, PEXTRD) instructions the
// block function also uses (leaf 1 ECX bits 9 and 19).
func hasSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// blockSHANI hashes every whole 64-byte block of p into h.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// newSHA1 returns the SHA-1 Dd pipes its reads through: crypto/sha1's
// padding and state around a block function on the CPU's SHA extensions
// where it has them, crypto/sha1 itself where it does not.
func newSHA1() hash.Hash {
	if !useSHANI {
		return sha1.New()
	}
	d := new(sha1NI)
	d.Reset()
	return d
}

// sha1NI is crypto/sha1's digest with blockSHANI as its block function.
type sha1NI struct {
	h   [5]uint32
	x   [sha1.BlockSize]byte // a partial block, nx bytes of it
	nx  int
	len uint64
}

func (d *sha1NI) Reset() {
	d.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	d.nx = 0
	d.len = 0
}

func (d *sha1NI) Size() int { return sha1.Size }

func (d *sha1NI) BlockSize() int { return sha1.BlockSize }

func (d *sha1NI) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		p = p[c:]
		if d.nx < len(d.x) {
			return n, nil
		}
		blockSHANI(&d.h, d.x[:])
		d.nx = 0
	}
	whole := len(p) &^ (len(d.x) - 1)
	blockSHANI(&d.h, p[:whole])
	d.nx = copy(d.x[:], p[whole:])
	return n, nil
}

// Sum appends the digest of what was written so far; d is unchanged.
func (d *sha1NI) Sum(in []byte) []byte {
	c := *d
	// A 0x80 byte, zeros up to 8 bytes short of a block boundary, and the
	// message length in bits.
	var pad [sha1.BlockSize + 8]byte
	pad[0] = 0x80
	t := (55-c.len)%sha1.BlockSize + 1
	binary.BigEndian.PutUint64(pad[t:], c.len<<3)
	c.Write(pad[:t+8])
	var sum [sha1.Size]byte
	for i, v := range c.h {
		binary.BigEndian.PutUint32(sum[4*i:], v)
	}
	return append(in, sum[:]...)
}
