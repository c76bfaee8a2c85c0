package interp

import (
	"crypto/sha256"
	"encoding/binary"

	"authpoint/internal/mem"
)

// MemRange is one address window included in an architectural-state digest.
type MemRange struct {
	Start uint64
	Len   uint64
}

// digestVersion pins the digest encoding. Bump it if the layout below ever
// changes: recorded repro files compare digests byte-for-byte.
const digestVersion = "authfuzz/state/v1"

// DigestArchState hashes one architectural outcome — the integer and FP
// register files, the OUT log (port/value pairs, not cycles), and the given
// memory windows — into a stable 256-bit digest. The in-order oracle and the
// timed simulator hash with this same encoding, so equal digests mean equal
// architectural state; recorded digests in .repro files stay comparable
// across runs and machines. The windows are hashed in place, a page span at
// a time. The digest is a function of exactly these inputs, so a state
// equal to another in all of them takes the other's digest without being
// hashed (the differential checker remembers a seed's hashed states that
// way); an input added here must join that equality.
func DigestArchState(regs, fregs []uint64, outs []OutEvent, m *mem.Memory, ranges []MemRange) [32]byte {
	h := sha256.New()
	var buf [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(digestVersion))
	wr(uint64(len(regs)))
	for _, v := range regs {
		wr(v)
	}
	wr(uint64(len(fregs)))
	for _, v := range fregs {
		wr(v)
	}
	wr(uint64(len(outs)))
	for _, o := range outs {
		wr(uint64(o.Port))
		wr(o.Val)
	}
	wr(uint64(len(ranges)))
	for _, r := range ranges {
		wr(r.Start)
		wr(r.Len)
		m.Spans(r.Start, r.Len, func(span []byte) bool {
			h.Write(span)
			return true
		})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// StateDigest returns the canonical digest of this machine's architectural
// state over the given memory windows (see DigestArchState).
func (m *Machine) StateDigest(ranges ...MemRange) [32]byte {
	return DigestArchState(m.Regs[:], m.FRegs[:], m.Outs, m.Mem, ranges)
}
