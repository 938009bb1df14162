package resilientos

// Dd's SHA-1 against crypto/sha1. The SHA-extensions block function must
// give crypto/sha1's digest for every length, every way of splitting the
// input into writes and every use of the hash.Hash interface. Each test
// runs on both arms of newSHA1's dispatch, so a host with the extensions
// exercises the crypto/sha1 fallback too.

import (
	"bytes"
	"crypto/sha1"
	"hash"
	"math/rand"
	"reflect"
	"testing"
)

// sha1Arms runs test once with the SHA extensions (skipped on a CPU
// without them) and once with crypto/sha1, restoring the dispatch flag.
func sha1Arms(t *testing.T, test func(t *testing.T)) {
	t.Helper()
	hw := useSHANI
	defer func() { useSHANI = hw }()
	stdlib := reflect.TypeOf(sha1.New())
	for _, arm := range []struct {
		name string
		on   bool
	}{{"shani", true}, {"stdlib", false}} {
		t.Run(arm.name, func(t *testing.T) {
			if arm.on && !hw {
				t.Skip("the CPU has no SHA extensions")
			}
			useSHANI = arm.on
			if got := reflect.TypeOf(newSHA1()); (got == stdlib) == arm.on {
				t.Fatalf("newSHA1 returned a %v with the SHA extensions %v", got, arm.on)
			}
			test(t)
		})
	}
}

func sha1Input(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func checkSum(t *testing.T, h hash.Hash, want []byte, what string, args ...any) {
	t.Helper()
	if got := h.Sum(nil); !bytes.Equal(got, want) {
		t.Fatalf(what+": digest %x, crypto/sha1 %x", append(args, got, want)...)
	}
}

// TestSHA1MatchesStdlibEveryLength hashes every length from 0 to 2,048
// bytes in one write: every partial-block remainder and both padding
// cases (the length fits in the last block or needs one more).
func TestSHA1MatchesStdlibEveryLength(t *testing.T) {
	data := sha1Input(2048, 1)
	sha1Arms(t, func(t *testing.T) {
		for n := 0; n <= len(data); n++ {
			h := newSHA1()
			h.Write(data[:n])
			want := sha1.Sum(data[:n])
			checkSum(t, h, want[:], "one write of %d bytes", n)
		}
	})
}

// TestSHA1MatchesStdlibSplits feeds random streams in random writes —
// empty, one byte, a block less, equal and more by one, and more than
// 64 KiB — and checks the digest after every write, so every write also
// follows a Sum.
func TestSHA1MatchesStdlibSplits(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 64<<10 + 7}
	sha1Arms(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for stream := 0; stream < 100; stream++ {
			h, ref := newSHA1(), sha1.New()
			for w := 0; w < 20; w++ {
				n := sizes[rng.Intn(len(sizes))]
				if rng.Intn(3) == 0 {
					n = rng.Intn(200)
				}
				p := sha1Input(n, rng.Int63())
				h.Write(p)
				ref.Write(p)
				checkSum(t, h, ref.Sum(nil), "stream %d write %d", stream, w)
			}
		}
	})
}

// TestSHA1MatchesStdlibInterface checks the rest of hash.Hash: Sum
// appends and leaves the state alone, Reset starts over, and the sizes.
func TestSHA1MatchesStdlibInterface(t *testing.T) {
	data := sha1Input(300, 3)
	empty := sha1.Sum(nil)
	whole := sha1.Sum(data)
	sha1Arms(t, func(t *testing.T) {
		h := newSHA1()
		if h.Size() != sha1.Size || h.BlockSize() != sha1.BlockSize {
			t.Fatalf("Size %d, BlockSize %d", h.Size(), h.BlockSize())
		}
		checkSum(t, h, empty[:], "nothing written")
		h.Write(data[:100])
		first := h.Sum(nil)
		if second := h.Sum([]byte("prefix")); string(second) != "prefix"+string(first) {
			t.Fatalf("second Sum %x, first %x", second, first)
		}
		h.Write(data[100:])
		checkSum(t, h, whole[:], "Write after Sum")
		h.Reset()
		checkSum(t, h, empty[:], "Reset")
		h.Write(data)
		checkSum(t, h, whole[:], "Write after Reset")
	})
}

// FuzzSHA1MatchesStdlib: any input, written in two parts split anywhere,
// hashes as crypto/sha1 hashes it whole, on both dispatch arms.
func FuzzSHA1MatchesStdlib(f *testing.F) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 64<<10 + 1} {
		f.Add(sha1Input(n, int64(n)), uint(n/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		want := sha1.Sum(data)
		k := int(split % uint(len(data)+1))
		hw := useSHANI
		defer func() { useSHANI = hw }()
		for _, on := range []bool{hw, false} {
			useSHANI = on
			h := newSHA1()
			h.Write(data[:k])
			h.Write(data[k:])
			checkSum(t, h, want[:], "split at %d", k)
		}
	})
}
