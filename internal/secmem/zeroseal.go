package secmem

import (
	"authpoint/internal/cryptoengine/ctr"
	"authpoint/internal/cryptoengine/hmac"
)

// zeroSealCapB bounds the bytes the all-zero memo holds. A 64 KB stack
// takes 80 KB under the reference configuration, a 1 MB probe window
// 1.25 MB.
const zeroSealCapB = 16 << 20

// sealParams is what the seal of every line depends on besides its address
// and plaintext: the two keys, the line and MAC sizes, and whether the MAC
// covers the counter.
type sealParams struct {
	encKey, macKey   string
	lineB, macB      int
	macCoversCounter bool
}

// zeroSealKey is everything the seal of an all-zero protected range
// depends on: the seal parameters and the range.
type zeroSealKey struct {
	sealParams
	start, end uint64
}

func (k zeroSealKey) lines() int { return int(k.end-k.start) / k.lineB }

// size is the bytes k's entry holds.
func (k zeroSealKey) size() int { return k.lines() * (k.lineB + k.macB + 8) }

// zeroSeal is the sealed form of an all-zero protected range, in address
// order: each line's ciphertext at counter 1, its counter, and its
// truncated flat MAC.
type zeroSeal struct {
	ct   []byte
	ctrs []uint64
	macs []byte
}

// zeroSeals is the process-wide memo every controller starts with: a
// machine's stack, and any probe window, is the same all-zero range under
// the same keys in every machine a campaign builds.
var zeroSeals = newMemo[zeroSealKey, *zeroSeal](zeroSealCapB)

// zeroSealOf returns the seal of k's range from memo, computing and
// memoizing it on a miss. It returns nil when the seal is larger than the
// memo's cap.
func zeroSealOf(memo *memo[zeroSealKey, *zeroSeal], k zeroSealKey) *zeroSeal {
	if s, ok := memo.get(k); ok {
		return s
	}
	if k.size() > memo.capB {
		return nil
	}
	return memo.put(k, k.seal(), k.size())
}

// seal computes k's entry from the key alone: each line of the range
// encrypted as zeroes by a fresh engine, which takes its counter from 0 to
// 1, and the line's MAC message MACed and truncated. A miss in tree mode
// computes the flat MACs too, so that one entry serves both modes.
func (k zeroSealKey) seal() *zeroSeal {
	// Cannot fail: New built the controller's engine from the same key and
	// line size.
	enc, _ := ctr.NewEngine([]byte(k.encKey), k.lineB)
	mac := hmac.NewKeyed([]byte(k.macKey))
	lines := k.lines()
	s := &zeroSeal{ct: make([]byte, lines*k.lineB), ctrs: make([]uint64, lines), macs: make([]byte, lines*k.macB)}
	zero := make([]byte, k.lineB)
	msg := make([]byte, 16+k.lineB)
	var counter uint64 // in the MAC message
	if k.macCoversCounter {
		counter = 1
	}
	for i := 0; i < lines; i++ {
		a := k.start + uint64(i*k.lineB)
		ct := s.ct[i*k.lineB : (i+1)*k.lineB]
		_ = enc.EncryptLineInto(ct, a, zero)
		s.ctrs[i] = 1
		sum := mac.Mac(putAuthMessage(msg, a, counter, ct))
		copy(s.macs[i*k.macB:], sum[:k.macB])
	}
	return s
}

// installZeroSeals serves each protected range that no segment touches
// from the controller's memo: it copies the range's ciphertext into memory
// and sets the range's counters to 1. It returns each range's entry, in
// c.protected order, nil for a range to be sealed line by line.
func (c *Controller) installZeroSeals(segs []Segment) []*zeroSeal {
	seals := make([]*zeroSeal, len(c.protected))
	if c.seals == nil {
		return seals
	}
	for k, r := range c.protected {
		if r.start == r.end || touches(segs, r) {
			continue
		}
		s := zeroSealOf(c.seals, zeroSealKey{c.sealKey, r.start, r.end})
		if s == nil {
			continue
		}
		c.mem.Write(r.start, s.ct)
		c.enc.SetCounters(r.start, s.ctrs)
		seals[k] = s
	}
	return seals
}

// touches reports whether a non-empty segment has a byte in r.
func touches(segs []Segment, r addrRange) bool {
	for _, s := range segs {
		if len(s.Data) > 0 && s.Addr < r.end && s.Addr+uint64(len(s.Data)) > r.start {
			return true
		}
	}
	return false
}
