package inet

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// poisonFreed is internal/kernel's use-after-release switch: while set,
// the free list overwrites every buffer it takes back with 0xDB. It stays
// unexported there — no program can turn it on — and tests reach it here.
//
//go:linkname poisonFreed resilientos/internal/kernel.poisonFreed
var poisonFreed bool

// poison switches the oracle on for the rest of t, subtests included.
func poison(t *testing.T) {
	poisonFreed = true
	t.Cleanup(func() { poisonFreed = false })
}
