package diffcheck

import (
	"authpoint/internal/asm"
	"authpoint/internal/campaign"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/interp"
	"authpoint/internal/isa"
)

// oracleState is an immutable snapshot of one in-order oracle run: everything
// the differential comparison reads — stop behaviour, committed count, both
// register files, the OUT log, the fault description, the digest windows'
// final bytes, and the canonical state digest. Snapshots are safe to share
// across workers (unlike *interp.Machine, whose memory reads mutate a
// one-entry page cache), which is what makes the oracle leg memoizable.
type oracleState struct {
	stop      interp.StopReason
	insts     uint64
	regs      [isa.NumIntRegs]uint64
	fregs     [isa.NumFPRegs]uint64
	outs      []interp.OutEvent
	faultKind string
	faultAddr uint64
	ranges    []interp.MemRange
	mem       [][]byte // one snapshot per range, same order
	digest    [32]byte
}

// runOracle executes the in-order oracle on p and snapshots the outcome over
// the given digest windows. DefaultMaxOracleInsts bounds the run; a
// StopMaxInsts snapshot carries no digest or memory (the check errors out
// before using them).
func runOracle(p *asm.Program, mode pacmac.Mode, ranges []interp.MemRange) *oracleState {
	o := interp.New(p)
	o.PACMode = mode
	st := &oracleState{stop: o.Run(DefaultMaxOracleInsts), ranges: ranges}
	st.insts = o.Insts
	st.regs = o.Regs
	st.fregs = o.FRegs
	st.outs = append([]interp.OutEvent(nil), o.Outs...)
	st.faultKind, st.faultAddr, _ = o.Fault()
	if st.stop != interp.StopMaxInsts {
		st.digest = o.StateDigest(ranges...)
		for _, r := range ranges {
			st.mem = append(st.mem, o.Mem.Read(r.Start, int(r.Len)))
		}
	}
	return st
}

// readUint mirrors mem.Memory.ReadUint (n-byte little-endian) over a
// snapshot window, reading zero bytes past the captured range like the
// sparse memory reads zero for untouched pages.
func (st *oracleState) readUint(ri int, off uint64, n int) uint64 {
	var v uint64
	buf := st.mem[ri]
	for i := 0; i < n; i++ {
		idx := off + uint64(i)
		if idx >= uint64(len(buf)) {
			break
		}
		v |= uint64(buf[idx]) << (8 * i)
	}
	return v
}

// oracleKey addresses one memoizable oracle run. The oracle leg is
// policy-independent except for the architectural pointer-authentication
// mode, so a -mode cross campaign pays it once per (seed, pac-mode) instead
// of once per (seed × policy).
type oracleKey struct {
	prog [32]byte // SHA-256 of the source text
	mode pacmac.Mode
}

// OracleMemo memoizes in-order oracle runs across differential checks.
// Sweeps share one memo across all cells, and each oracle run is a miss:
// its Hits count the runs the memo saved. Safe for concurrent use.
type OracleMemo = campaign.Memo[oracleKey, *oracleState]

// NewOracleMemo builds a memo holding at most cap entries (<=0 means
// campaign.DefaultMemoCap).
func NewOracleMemo(cap int) *OracleMemo {
	return campaign.NewMemo[oracleKey, *oracleState](cap)
}
