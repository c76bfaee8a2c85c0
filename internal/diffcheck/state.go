package diffcheck

import (
	"bytes"
	"encoding/hex"
	"slices"
	"sync"

	"authpoint/internal/interp"
	"authpoint/internal/isa"
	"authpoint/internal/mem"
	"authpoint/internal/sim"
)

// liveState is an architectural end state still in its machine: exactly
// the inputs interp.DigestArchState hashes, the digest windows being read
// from mem.
type liveState struct {
	regs  [isa.NumIntRegs]uint64
	fregs [isa.NumFPRegs]uint64
	outs  []interp.OutEvent
	mem   *mem.Memory
}

// simState is the committed end state of the timed machine m.
func simState(m *sim.Machine) liveState {
	s := liveState{mem: m.Shadow}
	for r := range s.regs {
		s.regs[r] = m.Core.Reg(uint8(r))
	}
	for r := range s.fregs {
		s.fregs[r] = m.Core.FReg(uint8(r))
	}
	log := m.Core.OutLog()
	s.outs = make([]interp.OutEvent, len(log))
	for i, o := range log {
		s.outs[i] = interp.OutEvent{Port: o.Port, Val: o.Val}
	}
	return s
}

// interpState is the end state of the in-order oracle o.
func interpState(o *interp.Machine) liveState {
	return liveState{regs: o.Regs, fregs: o.FRegs, outs: o.Outs, mem: o.Mem}
}

// Test hooks, called when set once per in-order oracle run, once per end
// state hashed and once per timed machine built: tests count with them the
// work that the oracle memo, the seeds' state lists and the sibling
// outcomes save.
var testHookOracleRun, testHookStateHash, testHookTimedRun func()

// hashState is interp.DigestArchState of live over ranges.
func hashState(live *liveState, ranges []interp.MemRange) [32]byte {
	if testHookStateHash != nil {
		testHookStateHash()
	}
	return interp.DigestArchState(live.regs[:], live.fregs[:], live.outs, live.mem, ranges)
}

// archState is an immutable snapshot of one architectural end state:
// exactly what interp.DigestArchState hashes, and its digest. The windows
// are held a page span at a time, as mem.Memory.Spans walks them, and a
// span of a page the memory never wrote is held as absent, so a generated
// program's snapshot holds its data segment and none of its stack. Once
// published, a snapshot is shared by checks and workers (unlike a live
// interp.Machine, whose memory reads mutate a page cache).
type archState struct {
	regs   [isa.NumIntRegs]uint64
	fregs  [isa.NumFPRegs]uint64
	outs   []interp.OutEvent
	ranges []interp.MemRange
	spans  []stateSpan
	digest [32]byte
}

// stateSpan is the part of a digest window in one page: n bytes at addr,
// held in b, or nil b if the page was never written (it reads as zero).
type stateSpan struct {
	addr, n uint64
	b       []byte
}

// snapshot copies live's state over ranges and hashes it.
func snapshot(live *liveState, ranges []interp.MemRange) *archState {
	a := &archState{regs: live.regs, fregs: live.fregs, outs: slices.Clone(live.outs), ranges: ranges}
	for _, r := range ranges {
		for addr, end := r.Start, r.Start+r.Len; addr < end; {
			s := stateSpan{addr: addr, n: min(end-addr, mem.PageSize-addr%mem.PageSize)}
			if live.mem.Written(addr) {
				s.b = live.mem.Read(addr, int(s.n))
			}
			a.spans = append(a.spans, s)
			addr += s.n
		}
	}
	a.digest = hashState(live, ranges)
	return a
}

// zeroPage is what a span of a page never written reads as.
var zeroPage [mem.PageSize]byte

// matches reports whether live's state over ranges is byte for byte the
// one a holds, and so hashes to a's digest: the same windows, both
// register files, the OUT log's (port, value) pairs and every window byte.
// Windows are compared a page span at a time, and a span absent on both
// sides is equal without being read.
func (a *archState) matches(live *liveState, ranges []interp.MemRange) bool {
	if a.regs != live.regs || a.fregs != live.fregs || !slices.Equal(a.outs, live.outs) || !slices.Equal(a.ranges, ranges) {
		return false
	}
	for i := range a.spans {
		s := &a.spans[i]
		if !live.mem.Written(s.addr) {
			if s.b != nil && !bytes.Equal(s.b, zeroPage[:s.n]) {
				return false
			}
			continue
		}
		if !live.mem.Spans(s.addr, s.n, func(span []byte) bool {
			if s.b == nil {
				return bytes.Equal(span, zeroPage[:s.n])
			}
			return bytes.Equal(span, s.b)
		}) {
			return false
		}
	}
	return true
}

// readUint reads the n-byte little-endian word at addr from the snapshot's
// windows, as mem.Memory.ReadUint reads it from a machine's memory.
func (a *archState) readUint(addr uint64, n int) uint64 {
	var v uint64
	for i := range n {
		at := addr + uint64(i)
		for _, s := range a.spans {
			if at-s.addr < s.n {
				if s.b != nil {
					v |= uint64(s.b[at-s.addr]) << (8 * i)
				}
				break
			}
		}
	}
	return v
}

// maxSeedStates bounds a seed's state list. A seed's tamper cells end in a
// handful of distinct states (2 to 5 besides the oracle's for each of
// seeds 1-40 under the ci lattice at every site); the bound keeps a seed
// whose runs all end apart, such as garbage executed under a
// non-authenticating point, from growing its list without limit. Past it,
// a new state is hashed and not kept.
const maxSeedStates = 8

// stateList holds the distinct end states the checks of one seed have
// hashed, so that a check whose end state equals one of them takes its
// digest instead of hashing the windows again. The workers checking a seed
// share its list: appends hold mu, and published snapshots are immutable,
// so matching reads them outside the lock.
type stateList struct {
	mu     sync.Mutex
	states []*archState
}

// snapshot returns a snapshot of live's state over ranges: one the list
// holds that is not skip, or else a new one, which the list keeps while it
// has room.
func (l *stateList) snapshot(live *liveState, ranges []interp.MemRange, skip *archState) *archState {
	l.mu.Lock()
	states := l.states
	l.mu.Unlock()
	for _, a := range states {
		if a != skip && a.matches(live, ranges) {
			return a
		}
	}
	a := snapshot(live, ranges)
	l.mu.Lock()
	if len(l.states) < maxSeedStates {
		l.states = append(l.states, a)
	}
	l.mu.Unlock()
	return a
}

// digest returns the hex digest of live's state over ranges: the oracle
// snapshot's if it matches, else that of a state the list holds, else a
// fresh hash.
func (l *stateList) digest(live *liveState, ranges []interp.MemRange, oracle *archState) string {
	a := oracle
	if !a.matches(live, ranges) {
		a = l.snapshot(live, ranges, oracle)
	}
	return hex.EncodeToString(a.digest[:])
}
