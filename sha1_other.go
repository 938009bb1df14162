//go:build !amd64

package resilientos

import (
	"crypto/sha1"
	"hash"
)

// useSHANI is false off amd64: there is no SHA-extensions block function.
var useSHANI = false

// newSHA1 returns the SHA-1 Dd pipes its reads through: crypto/sha1.
func newSHA1() hash.Hash { return sha1.New() }
