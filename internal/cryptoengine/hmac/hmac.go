// Package hmac is the HMAC-SHA256 (RFC 2104 / FIPS 198) unit of the secure
// processor model, computed by the standard library's crypto/hmac and
// crypto/sha256, which use the host's SHA instructions where it has them. The
// secure processor uses it truncated: the paper's reference design stores a
// 64-bit truncated HMAC alongside every protected cache line (Section
// 5.2.3), and callers keep the leading bytes of Mac's result.
package hmac

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"hash"
)

// Size is the full MAC size in bytes before truncation.
const Size = sha256.Size

// Keyed is HMAC-SHA256 under one fixed key. The first MAC saves the hash
// states after the key's inner and outer pad blocks and every later one
// restores them, so a MAC costs only the compressions of the message and of
// the inner digest. Mac and Verify reuse the one hash state and sum buffer,
// and count the MACs computed, so a Keyed is not safe for concurrent use.
type Keyed struct {
	h    hash.Hash
	sum  [Size]byte // the buffer the hash sums into
	macs uint64
}

// NewKeyed returns the HMAC-SHA256 state for key.
func NewKeyed(key []byte) *Keyed { return &Keyed{h: hmac.New(sha256.New, key)} }

// Mac computes HMAC-SHA256 of msg. After the first call, which saves the pad
// states, it does not allocate: the simulated authentication engine MACs
// every external line fetch, so this sits on the simulator's hot path. msg
// escapes to the heap, so a hot caller passes a buffer it reuses rather than
// a stack array.
func (k *Keyed) Mac(msg []byte) [Size]byte {
	k.macs++
	k.h.Reset()
	k.h.Write(msg)
	var out [Size]byte
	copy(out[:], k.h.Sum(k.sum[:0]))
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

// MACs returns how many MACs the Keyed has computed; Verify computes one.
func (k *Keyed) MACs() uint64 { return k.macs }

// Mac computes HMAC-SHA256(key, msg) for a one-off key; callers that MAC
// repeatedly under one key hold a Keyed instead.
func Mac(key, msg []byte) [Size]byte {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	var out [Size]byte
	copy(out[:], h.Sum(nil))
	return out
}
