package diffcheck

import (
	"authpoint/internal/asm"
	"authpoint/internal/campaign"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/interp"
)

// oracleState is an immutable snapshot of one in-order oracle run:
// everything the differential comparison reads — stop behaviour, committed
// count, the fault description, and the end state with its digest (nil for
// a run that hit the instruction bound) — and the number of its auths whose
// tag did not match. Snapshots are safe to share across workers, which is
// what makes the oracle leg memoizable.
type oracleState struct {
	stop       interp.StopReason
	insts      uint64
	faultKind  string
	faultAddr  uint64
	authMisses uint64 // zero: the run ends the same under every pac-mode
	state      *archState
}

// runOracle executes the in-order oracle on p and snapshots the outcome over
// the given digest windows, taking the end state from the seed's states
// when one of them equals it, so that the seed's pointer-auth modes hash an
// end state they share once. DefaultMaxOracleInsts bounds the run; a
// StopMaxInsts snapshot carries no state (the check errors out before using
// it).
func runOracle(p *asm.Program, mode pacmac.Mode, ranges []interp.MemRange, states *stateList) *oracleState {
	if testHookOracleRun != nil {
		testHookOracleRun()
	}
	o := interp.New(p)
	o.PACMode = mode
	st := &oracleState{stop: o.Run(DefaultMaxOracleInsts), insts: o.Insts}
	st.authMisses = o.AuthMismatches
	st.faultKind, st.faultAddr, _ = o.Fault()
	if st.stop != interp.StopMaxInsts {
		live := interpState(o)
		st.state = states.snapshot(&live, ranges, nil)
	}
	return st
}

// oracleFor returns the oracle run of pr under mode. With a memo, the
// program's run under ModeOff serves every mode when none of its auths
// mismatched, since only a mismatch reads the mode, so a seed runs its
// oracle once whatever modes its cells have; the cell's own mode runs too
// only when that run counted a mismatch.
func oracleFor(pr program, mode pacmac.Mode, ranges []interp.MemRange, memo *OracleMemo) *oracleState {
	if memo == nil {
		return runOracle(pr.prog, mode, ranges, pr.states)
	}
	get := func(mode pacmac.Mode) *oracleState {
		return memo.Get(oracleKey{prog: pr.digest, mode: mode}, func() *oracleState {
			return runOracle(pr.prog, mode, ranges, pr.states)
		})
	}
	if o := get(pacmac.ModeOff); o.authMisses == 0 || mode == pacmac.ModeOff {
		return o
	}
	return get(mode)
}

// oracleKey addresses one memoizable oracle run. The oracle leg is
// policy-independent except for the architectural pointer-authentication
// mode, which matters only to a run whose auths mismatch, so a -mode cross
// campaign pays it once per seed (see oracleFor) instead of once per
// (seed × policy).
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
