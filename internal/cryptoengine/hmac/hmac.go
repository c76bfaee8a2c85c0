// Package hmac implements HMAC-SHA256 (RFC 2104 / FIPS 198) over the
// from-scratch SHA-256 in this repository. The secure processor uses it
// truncated: the paper's reference design stores a 64-bit truncated HMAC
// alongside every protected cache line (Section 5.2.3), and callers keep the
// leading bytes of Mac's result.
package hmac

import (
	"crypto/subtle"

	"authpoint/internal/cryptoengine/sha256"
)

// Size is the full MAC size in bytes before truncation.
const Size = sha256.Size

// Keyed is HMAC-SHA256 under one fixed key. The key's inner and outer pad
// blocks are absorbed once, at construction, so a MAC costs only the
// compressions of the message and of the inner digest: three for the
// 80-byte line MAC message instead of five. A Keyed is not modified by Mac
// or Verify, so it may be shared by concurrent callers.
type Keyed struct {
	inner, outer sha256.Digest // hash states after the ipad and opad blocks
}

// NewKeyed returns the HMAC-SHA256 state for key.
func NewKeyed(key []byte) *Keyed {
	k := &Keyed{}
	k.init(key)
	return k
}

func (k *Keyed) init(key []byte) {
	var kb [sha256.BlockSize]byte
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		copy(kb[:], sum[:])
	} else {
		copy(kb[:], key)
	}
	var ipad, opad [sha256.BlockSize]byte
	for i := range kb {
		ipad[i] = kb[i] ^ 0x36
		opad[i] = kb[i] ^ 0x5c
	}
	k.inner.Reset()
	k.inner.Write(ipad[:])
	k.outer.Reset()
	k.outer.Write(opad[:])
}

// Mac computes HMAC-SHA256 of msg. It does not allocate: the simulated
// authentication engine MACs every external line fetch, so this sits on the
// simulator's hot path.
func (k *Keyed) Mac(msg []byte) [Size]byte {
	d := k.inner
	d.Write(msg)
	var innerSum [Size]byte
	d.SumInto(&innerSum)
	d = k.outer
	d.Write(innerSum[:])
	var out [Size]byte
	d.SumInto(&out)
	return out
}

// Verify reports whether mac equals the leading len(mac) bytes of the MAC of
// msg (a truncated MAC), in constant time. An empty or over-long mac is
// rejected. Like Mac, it does not allocate.
func (k *Keyed) Verify(msg, mac []byte) bool {
	if len(mac) == 0 || len(mac) > Size {
		return false
	}
	want := k.Mac(msg)
	return subtle.ConstantTimeCompare(want[:len(mac)], mac) == 1
}

// Mac computes HMAC-SHA256(key, msg) for a one-off key; callers that MAC
// repeatedly under one key hold a Keyed instead. It does not allocate.
func Mac(key, msg []byte) [Size]byte {
	var k Keyed
	k.init(key)
	return k.Mac(msg)
}

// PaddedBlocks reports how many hash-unit invocations authenticating an
// n-byte message costs. HMAC needs two passes (inner and outer), but in the
// hardware reference the outer pass over the fixed-size inner digest is
// pipelined; the dominant term — and the one the paper's 74ns figure charges
// — is the inner hash over the padded message. The timing model therefore
// charges PaddedBlocks(n) hash latencies per MAC.
func PaddedBlocks(n int) int { return sha256.PaddedBlocks(n) }
