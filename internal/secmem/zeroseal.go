package secmem

import (
	"sync"

	"authpoint/internal/cryptoengine/ctr"
	"authpoint/internal/cryptoengine/hmac"
)

// zeroSealCapB bounds the bytes the memo holds. Entries are never evicted:
// once an entry would push the memo past the cap, FinishProtection seals
// that range line by line, as it would without the memo. A 64 KB stack
// takes 72 KB under the reference configuration, a 1 MB probe window
// 1.125 MB.
const zeroSealCapB = 16 << 20

// zeroSealKey is everything the seal of an all-zero protected range depends
// on: the two keys, the line and MAC sizes, whether the MAC covers the
// counter, and the range.
type zeroSealKey struct {
	encKey, macKey   string
	lineB, macB      int
	macCoversCounter bool
	start, end       uint64
}

// zeroSeal is the sealed form of an all-zero protected range: each line's
// ciphertext at counter 1 and each line's truncated flat MAC, both in
// address order. An entry is never modified once built; controllers copy
// it into their own memory and MAC store and never alias it.
type zeroSeal struct{ ct, macs []byte }

// sealMemo memoizes zeroSeals by key. It is a cache of a pure function of
// its key, so a hit returns exactly what a miss computes, whichever
// controller, test or goroutine filled it.
type sealMemo struct {
	mu      sync.Mutex
	entries map[zeroSealKey]*zeroSeal
	bytes   int // held by entries, at most capB
	capB    int
}

// zeroSeals is the process-wide memo every controller starts with: a
// machine's stack, and any probe window, is the same all-zero range under
// the same keys in every machine a campaign builds.
var zeroSeals = newSealMemo(zeroSealCapB)

func newSealMemo(capB int) *sealMemo {
	return &sealMemo{entries: map[zeroSealKey]*zeroSeal{}, capB: capB}
}

// get returns the seal of k's range from the memo, computing and memoizing
// it on a miss. It returns nil when the entry does not fit under the cap.
// Concurrent misses on one key may each compute the seal; the first to
// finish fills the memo and the others return that entry.
func (m *sealMemo) get(k zeroSealKey) *zeroSeal {
	size := int(k.end-k.start) / k.lineB * (k.lineB + k.macB)
	m.mu.Lock()
	s, ok := m.entries[k]
	fits := m.bytes+size <= m.capB
	m.mu.Unlock()
	if ok || !fits {
		return s
	}
	s = k.seal()
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.entries[k]; ok {
		return prev
	}
	if m.bytes+size > m.capB {
		return nil
	}
	m.entries[k] = s
	m.bytes += size
	return s
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
	lines := int(k.end-k.start) / k.lineB
	s := &zeroSeal{ct: make([]byte, lines*k.lineB), macs: make([]byte, lines*k.macB)}
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
	lb := uint64(c.cfg.LineB)
	for k, r := range c.protected {
		if r.start == r.end || touches(segs, r) {
			continue
		}
		key := c.sealKey
		key.start, key.end = r.start, r.end
		s := c.seals.get(key)
		if s == nil {
			continue
		}
		c.mem.Write(r.start, s.ct)
		for a := r.start; a < r.end; a += lb {
			c.enc.SetCounter(a, 1)
		}
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
