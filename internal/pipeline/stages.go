// Pipeline stages, in the reverse order Step runs them: commit, writeback,
// issue/execute, dispatch, fetch. Each stage touches only this cycle's
// state; reverse order makes same-cycle structural hazards resolve the way
// hardware does.

package pipeline

import (
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/isa"
	"authpoint/internal/obs"
)

// ---------------------------------------------------------------- commit --

func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		e := &c.ruu[c.head]
		if e.state != stDone {
			// Head is blocked on execution, not authentication: any open
			// auth/SB stall interval is over.
			c.stallEnd(obs.StallCommitAuth)
			c.stallEnd(obs.StallSBFull)
			return
		}
		if c.cfg.GateCommit {
			gate := max(e.instAuthDone, e.dataAuthDone)
			if c.now < gate {
				c.stats.CommitAuthStall++
				c.stallBegin(obs.StallCommitAuth)
				return
			}
		}
		c.stallEnd(obs.StallCommitAuth)
		if e.fault != FaultNone {
			// Precise exception at commit: the faulting address becomes
			// architecturally visible (logged/displayed by the OS).
			c.fault = e.fault
			c.faultPC = e.pc
			c.faultVal = e.faultAddr
			if e.fault == FaultBadAddr {
				c.mem.LogFault(e.faultAddr)
			}
			return
		}
		switch e.inst.Op.Class() {
		case isa.ClassHalt:
			c.halted = true
		case isa.ClassOut:
			c.outLog = append(c.outLog, OutEvent{Cycle: c.now, Port: uint32(e.inst.Imm), Val: e.srcVal[0]})
		}
		if e.isStore {
			if !c.mem.CommitStore(c.now, e.addr, e.srcVal[1], e.memSize, e.authTagIssue) {
				// A rejected retry is pure stall accounting, not progress:
				// SkipTo batches these cycles when the whole machine idles.
				c.stats.SBFullStall++
				c.stallBegin(obs.StallSBFull)
				return
			}
		}
		c.stallEnd(obs.StallSBFull)
		if e.hasDest {
			if e.destFP {
				c.fregs[e.destReg] = e.result
				if c.renameFP[e.destReg] == c.head {
					c.renameFP[e.destReg] = -1
				}
			} else if e.destReg != isa.RegZero {
				c.regs[e.destReg] = e.result
				if c.renameInt[e.destReg] == c.head {
					c.renameInt[e.destReg] = -1
				}
			}
		}
		if e.isLoad || e.isStore {
			c.lsqCount--
		}
		if e.isStore {
			c.storeCount--
			maskClear(c.storeMask, c.head)
			c.countStore(e, -1)
			c.unpark(c.head)
		}
		if c.CommitHook != nil {
			c.CommitHook(e.pc, e.inst, e.result)
		}
		if c.sink != nil {
			c.sink.Emit(obs.Event{Cycle: c.now, Kind: obs.EvCommit, Track: obs.TrackCore, Addr: e.pc})
		}
		e.valid = false
		c.head = ringNext(c.head, c.cfg.RUUSize)
		c.count--
		c.stats.Committed++
		c.progress = true
		if c.halted {
			return
		}
	}
}

// ------------------------------------------------------------- writeback --

func (c *Core) writeback() {
	if c.inflight == 0 || c.now < c.earliestDone {
		return
	}
	if c.perf != nil {
		c.perf.WritebackScans++
		if c.earliestDone == 0 {
			// 0 = "unknown, recompute": the first scan, or the scan after a
			// squash invalidated the watermark.
			c.perf.WatermarkRescans++
		}
	}
	next := ^uint64(0)
	// Complete in age order so the oldest mispredicted branch wins. The
	// issued bitmap visits exactly the in-flight entries: done entries parked
	// before commit and waiting entries carry no completion events.
	var redirect *entry
	var redirectIdx int
	c.maskOrder(c.issueMask, func(idx int, e *entry) bool {
		if e.doneCycle > c.now {
			if e.doneCycle < next {
				next = e.doneCycle
			}
			return true
		}
		e.state = stDone
		c.inflight--
		maskClear(c.issueMask, idx)
		c.progress = true
		c.broadcast(idx, e)
		if e.isCond {
			c.bp.UpdateCond(e.pc, e.predTaken, e.taken)
		}
		if e.isCtl && e.inst.Op == isa.OpJALR {
			c.bp.UpdateBTB(e.pc, e.actualNPC)
		}
		if e.isCtl && e.actualNPC != e.predNPC && redirect == nil {
			redirect = e
			redirectIdx = idx
		}
		return true
	})
	c.earliestDone = next
	if redirect != nil {
		c.stats.Mispredicts++
		before := c.stats.Squashed
		c.squashAfter(redirectIdx)
		if c.sink != nil {
			c.sink.Emit(obs.Event{Cycle: c.now, Kind: obs.EvSquash, Track: obs.TrackCore,
				Addr: redirect.pc, A: c.stats.Squashed - before})
		}
		c.pc = redirect.actualNPC
		c.fetchBlocked = c.now + 1
		c.fetchFaulted = false
		c.fetchTag = c.mem.LastAuthRequest(c.now)
		c.ifqHead, c.ifqLen = 0, 0
	}
}

// broadcast wakes consumers of entry idx by walking the dependency records
// registered at dispatch (entry.consumers) instead of scanning the window.
// A record can be stale — its consumer squashed, or the slot reused by a new
// instruction — so each wake re-checks that the slot is valid and still
// names idx as its producer. A reused slot that passes the check is a
// genuine consumer of this producer (RUU indices are unique while the
// producer is live), so resolving through a stale record is still correct;
// a duplicate record then finds srcTag already -1 and is a no-op. A wake
// that lets the issue stage act on its consumer sets the consumer's ready
// bit, and a store's data arriving unparks the loads it blocks.
// (When the producer sits in RUU slot 0, a stale operand-1 record can also
// match a one-operand consumer, whose unused srcTag[1] reads 0; that wake
// changes no operand the consumer reads, and no mask.)
func (c *Core) broadcast(idx int, e *entry) {
	var woken uint64
	for _, packed := range e.consumers {
		w := &c.ruu[packed>>1]
		s := packed & 1
		if w.valid && w.srcTag[s] == idx {
			w.srcTag[s] = -1
			w.srcVal[s] = e.result
			woken++
			if int(s) < w.nsrc && w.canAct() {
				maskSet(c.readyMask, int(packed>>1))
			}
			if s == 1 && w.isStore {
				c.unpark(int(packed >> 1))
			}
		}
	}
	if c.perf != nil {
		c.perf.Broadcasts++
		c.perf.ConsumerVisits += uint64(len(e.consumers))
		c.perf.Wakes += woken
		c.perf.StaleWakes += uint64(len(e.consumers)) - woken
	}
	e.consumers = e.consumers[:0]
}

// squashAfter removes every entry younger than RUU index idx and rebuilds
// the rename tables from the survivors.
func (c *Core) squashAfter(idx int) {
	// Count survivors from head through idx.
	keep := 0
	for i, p := 0, c.head; i < c.count; i, p = i+1, ringNext(p, c.cfg.RUUSize) {
		keep++
		if p == idx {
			break
		}
	}
	for i, p := keep, ringNext(idx, c.cfg.RUUSize); i < c.count; i, p = i+1, ringNext(p, c.cfg.RUUSize) {
		e := &c.ruu[p]
		if e.valid {
			if e.isLoad || e.isStore {
				c.lsqCount--
			}
			if e.isStore {
				c.storeCount--
				if e.addrValid {
					c.countStore(e, -1)
				} else {
					maskClear(c.unresolvedMask, p)
				}
			}
			if e.state == stIssued {
				c.inflight--
			}
			maskClear(c.readyMask, p)
			maskClear(c.parkMask, p)
			maskClear(c.issueMask, p)
			maskClear(c.storeMask, p)
			e.valid = false
			c.stats.Squashed++
		}
	}
	c.earliestDone = 0
	c.count = keep
	c.tail = ringNext(idx, c.cfg.RUUSize)
	for i := range c.renameInt {
		c.renameInt[i] = -1
	}
	for i := range c.renameFP {
		c.renameFP[i] = -1
	}
	c.ruuOrder(func(p int, e *entry) bool {
		if e.hasDest {
			if e.destFP {
				c.renameFP[e.destReg] = p
			} else if e.destReg != isa.RegZero {
				c.renameInt[e.destReg] = p
			}
		}
		return true
	})
}

// ---------------------------------------------------------------- issue --

func (c *Core) issue() {
	issued := 0
	authHeld := false
	// The ready bitmap visits, in age order, exactly the waiting entries the
	// stage can act on; every other waiting entry would be skipped anyway.
	c.maskOrder(c.readyMask, func(idx int, e *entry) bool {
		if issued >= c.cfg.IssueWidth {
			return false
		}
		if c.perf != nil {
			c.perf.IssueVisits++
		}
		// Early store-address calculation (does not consume an issue slot):
		// lets younger loads disambiguate sooner. A ready store with its
		// address not computed has its base operand captured.
		if e.isStore && !e.addrValid {
			c.computeAddr(idx, e)
			if e.srcTag[1] != -1 {
				maskClear(c.readyMask, idx) // now waits for its data
				return true
			}
		}
		if c.cfg.GateIssue && c.now < e.instAuthDone {
			authHeld = true
			return true
		}
		if e.isLoad {
			if b := c.issueLoad(idx, e); b >= 0 {
				e.blocker = b
				maskClear(c.readyMask, idx)
				maskSet(c.parkMask, idx)
				return true
			}
			issued++
			c.stats.Issued++
			return true
		}
		c.execute(idx, e)
		issued++
		c.stats.Issued++
		return true
	})
	if authHeld {
		c.stats.IssueAuthStall++
		c.stallBegin(obs.StallIssueAuth)
	} else {
		c.stallEnd(obs.StallIssueAuth)
	}
}

func (c *Core) computeAddr(idx int, e *entry) {
	e.addr = e.srcVal[0] + uint64(int64(e.inst.Imm))
	e.addrValid = true
	e.memSize = e.inst.MemBytes()
	c.progress = true
	if e.isStore {
		maskClear(c.unresolvedMask, idx)
		c.countStore(e, 1)
		c.unpark(idx) // a resolved store address can unblock younger loads
	}
}

// countStore adds d to the store filter's count for store e, whose address
// is computed: its 8-byte-word bucket if the address is aligned, else the
// misaligned count.
func (c *Core) countStore(e *entry, d int32) {
	if misaligned(e.addr, e.memSize) {
		c.misalignedStores += int(d)
	} else {
		c.storeWords[uint8(e.addr>>3)] += d
	}
}

// misaligned reports whether an access of size bytes (1, 4 or 8) at addr is
// misaligned.
func misaligned(addr uint64, size int) bool { return addr&uint64(size-1) != 0 }

// filterClears reports whether the store filter proves that disambiguate
// would find neither a store to forward from nor one that blocks load e,
// address computed: no store in the window has a misaligned address, the
// load is aligned, no store's address falls in the load's 8-byte-word
// bucket, and the oldest store whose address is unresolved, if any, is
// younger than the load. Two aligned accesses of 1, 4 or 8 bytes overlap
// only within one 8-byte word, so then no older store overlaps the load.
func (c *Core) filterClears(e *entry) bool {
	if c.misalignedStores != 0 || misaligned(e.addr, e.memSize) || c.storeWords[uint8(e.addr>>3)] != 0 {
		return false
	}
	clears := true
	c.maskOrder(c.unresolvedMask, func(_ int, s *entry) bool {
		clears = s.seq > e.seq
		return false
	})
	return clears
}

// issueLoad attempts to issue the load at RUU index idx. It returns -1 when
// the load took an issue slot, or else the RUU index of the store that
// blocks it, on which the caller parks it.
func (c *Core) issueLoad(idx int, e *entry) int {
	if !e.addrValid {
		c.computeAddr(idx, e)
	}
	var forward *entry
	if c.storeCount > 0 && !c.filterClears(e) {
		f, blocker, visits := c.disambiguate(e)
		if c.perf != nil {
			c.perf.DisambScans++
			c.perf.DisambVisits += visits
		}
		if blocker >= 0 {
			return blocker
		}
		forward = f
	} else if c.perf != nil {
		c.perf.DisambShortCircuits++
	}
	c.markIssued(idx, e)
	if forward != nil {
		c.stats.Forwards++
		raw := truncate(forward.srcVal[1], e.memSize)
		c.finishLoad(e, raw, c.now+2)
		return -1
	}
	if misaligned(e.addr, e.memSize) {
		e.fault = FaultMisaligned
		e.faultAddr = e.addr
		e.doneCycle = c.now + 2
		c.noteDone(e.doneCycle)
		return -1
	}
	if !c.mem.ValidAddr(e.addr) {
		// Translation fault: no memory access reaches the bus; the fault
		// is taken (and the address disclosed) only if the load commits.
		e.fault = FaultBadAddr
		e.faultAddr = e.addr
		e.doneCycle = c.now + 2
		c.noteDone(e.doneCycle)
		return -1
	}
	if e.inst.Op == isa.OpPREF {
		// Prefetch: touches the hierarchy, produces no value.
		c.mem.ReadData(c.now+1, e.addr, e.memSize, e.authTagIssue)
		e.result = 0
		e.doneCycle = c.now + 2
		c.noteDone(e.doneCycle)
		return -1
	}
	r := c.mem.ReadData(c.now+1, e.addr, e.memSize, e.authTagIssue)
	e.dataAuthDone = r.AuthDone
	c.finishLoad(e, r.Raw, max(r.Ready, c.now+2))
	return -1
}

// disambiguate checks load e, address computed, against the older stores in
// the window, oldest to youngest: the youngest older store governs. An older
// store with an unresolved address hard-blocks the load — and must
// invalidate any forwarding candidate found so far, because the unresolved
// store is younger than that candidate and may overwrite it. A younger exact
// covering match, conversely, supersedes an older partial overlap. It
// returns the store to forward from (nil = read memory), the RUU index of
// the store that blocks the load (-1 = none), and the store entries
// visited; it changes no state.
//
// The blocker is the oldest older store whose address is unresolved, or
// else the youngest overlapping older store, which covers the load only in
// part or whose data is outstanding. Only that store's change can unblock
// the load: the scan stops at the unresolved store whatever the stores
// before it do, the youngest overlapping store decides for every older
// one, and a store dispatched later is younger than the load.
func (c *Core) disambiguate(e *entry) (forward *entry, blocker int, visits uint64) {
	blocker = -1
	// The store bitmap visits stores oldest to youngest; stores younger
	// than the load (larger sequence number) end the scan.
	c.maskOrder(c.storeMask, func(p int, older *entry) bool {
		visits++
		if older.seq > e.seq {
			return false
		}
		if !older.addrValid {
			forward, blocker = nil, p // conservative: unknown older store address
			return false
		}
		if rangesOverlap(older.addr, older.memSize, e.addr, e.memSize) {
			if older.addr == e.addr && older.memSize >= e.memSize && older.srcTag[1] == -1 {
				forward, blocker = older, -1 // youngest older matching store wins
			} else {
				forward, blocker = nil, p // partial overlap or data not ready
			}
		}
		return true
	})
	return forward, blocker, visits
}

func (c *Core) finishLoad(e *entry, raw uint64, ready uint64) {
	if e.inst.Op == isa.OpFLD {
		e.result = raw
	} else {
		e.result = isa.SignExtendLoad(e.inst.Op, raw)
	}
	e.doneCycle = ready
	c.noteDone(ready)
}

func truncate(v uint64, size int) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}

func rangesOverlap(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

// markIssued transitions an entry out of stWaiting, capturing the
// LastRequest tag and maintaining the scheduler counts. Every caller
// schedules the entry's doneCycle afterwards and folds it into
// earliestDone via noteDone, keeping the bound exact without a rescan.
func (c *Core) markIssued(idx int, e *entry) {
	e.state = stIssued
	e.authTagIssue = c.mem.LastAuthRequest(c.now)
	c.inflight++
	maskClear(c.readyMask, idx)
	maskSet(c.issueMask, idx)
	c.progress = true
	if c.sink != nil {
		c.sink.Emit(obs.Event{Cycle: c.now, Kind: obs.EvIssue, Track: obs.TrackCore, Addr: e.pc})
	}
}

// noteDone lowers earliestDone to a newly scheduled completion cycle. The
// bound must never exceed the true minimum doneCycle of in-flight entries
// (writeback skips its scan while now < earliestDone); 0 means "unknown —
// rescan", and the next writeback scan restores exactness.
func (c *Core) noteDone(d uint64) {
	if d < c.earliestDone {
		c.earliestDone = d
	}
}

// execute computes results for non-load instructions at issue and schedules
// completion.
func (c *Core) execute(idx int, e *entry) {
	c.markIssued(idx, e)
	lat := 1
	op := e.inst.Op
	switch op.Class() {
	case isa.ClassNop, isa.ClassHalt, isa.ClassOut:
		// OUT's value is srcVal[0]; emitted at commit.
	case isa.ClassALU:
		b := e.srcVal[1]
		if op.HasImm() {
			b = isa.ImmOperand(e.inst.Imm)
		}
		e.result = isa.EvalALU(op, e.srcVal[0], b)
	case isa.ClassMul:
		e.result = isa.EvalALU(op, e.srcVal[0], e.srcVal[1])
		lat = c.cfg.IntMulLat
		if op == isa.OpDIV || op == isa.OpREM {
			lat = c.cfg.IntDivLat
		}
	case isa.ClassStore, isa.ClassFPStore:
		if !e.addrValid {
			c.computeAddr(idx, e)
		}
		switch {
		case misaligned(e.addr, e.memSize):
			e.fault = FaultMisaligned
			e.faultAddr = e.addr
		case !c.mem.ValidAddr(e.addr):
			e.fault = FaultBadAddr
			e.faultAddr = e.addr
		}
	case isa.ClassBranch:
		e.isCond = true
		if op == isa.OpFBLT || op == isa.OpFBGE {
			e.taken = isa.EvalFPBranch(op, f64(e.srcVal[0]), f64(e.srcVal[1]))
		} else {
			e.taken = isa.EvalBranch(op, e.srcVal[0], e.srcVal[1])
		}
		if e.taken {
			e.actualNPC = isa.BranchTarget(e.pc, e.inst.Imm)
		} else {
			e.actualNPC = e.pc + isa.InstBytes
		}
	case isa.ClassJump:
		if op == isa.OpJAL {
			e.actualNPC = isa.BranchTarget(e.pc, e.inst.Imm)
		} else {
			e.actualNPC = (e.srcVal[0] + uint64(int64(e.inst.Imm))) &^ 3
		}
		e.result = e.pc + isa.InstBytes
	case isa.ClassFPU:
		switch op {
		case isa.OpFCVTIF:
			e.result = f64bits(isa.CvtIntToFP(e.srcVal[0]))
		case isa.OpFCVTFI:
			e.result = isa.CvtFPToInt(f64(e.srcVal[0]))
		default:
			e.result = f64bits(isa.EvalFPU(op, f64(e.srcVal[0]), f64(e.srcVal[1])))
		}
		lat = c.cfg.FPLat
		if op == isa.OpFDIV {
			lat = c.cfg.FPDivLat
		}
	case isa.ClassPAC:
		switch {
		case op == isa.OpSTRIP:
			e.result = pacmac.Strip(e.srcVal[0])
		case op.IsPACSign():
			e.result = c.pacs.Sign(e.srcVal[0], e.srcVal[1], op.PACUsesKeyB())
			lat = c.cfg.PACLat
		default: // auth
			v, ok, matched := c.pacs.Auth(e.srcVal[0], e.srcVal[1], op.PACUsesKeyB(), c.cfg.PACMode)
			e.result = v
			if !matched {
				c.stats.AuthMismatches++
			}
			if !ok {
				// FPAC: architectural fault at the auth point, taken at
				// commit — but the stripped pointer is still broadcast to
				// dependents, so a younger load can dereference it
				// speculatively before the fault retires (the
				// auth-then-use race).
				e.fault = FaultPACAuth
				e.faultAddr = e.pc
			}
			lat = c.cfg.PACLat
		}
	default:
		e.fault = FaultIllegalInst
		e.faultAddr = e.pc
	}
	e.doneCycle = c.now + uint64(lat)
	c.noteDone(e.doneCycle)
}

// ------------------------------------------------------------- dispatch --

func (c *Core) dispatch() {
	for n := 0; n < c.cfg.IssueWidth && c.ifqLen > 0; n++ {
		if c.count >= c.cfg.RUUSize {
			return
		}
		fi := &c.ifq[c.ifqHead]
		isMem := fi.uop.IsMem
		if isMem && c.lsqCount >= c.cfg.LSQSize {
			return
		}
		idx := c.tail
		c.tail = ringNext(c.tail, c.cfg.RUUSize)
		c.count++
		c.progress = true
		// Rebuild the slot where it lies: a composite literal would be built
		// on the stack and copied into the slot whole. The consumer list
		// keeps its backing array, so dispatch does not allocate.
		e := &c.ruu[idx]
		cons := e.consumers[:0]
		*e = entry{}
		e.consumers = cons
		e.valid = true
		e.seq = c.nextSeq
		e.pc = fi.pc
		e.inst = fi.uop.Inst
		e.predNPC = fi.predNPC
		e.predTaken = fi.predTaken
		e.instAuthDone = fi.instAuthDone
		c.nextSeq++
		if fi.uop.Illegal {
			c.ifqHead = ringNext(c.ifqHead, c.cfg.IFQSize)
			c.ifqLen--
			e.fault = FaultIllegalInst
			e.faultAddr = e.pc
			e.state = stIssued
			e.doneCycle = c.now + 1
			c.inflight++
			maskSet(c.issueMask, idx)
			c.noteDone(e.doneCycle)
			c.stats.Dispatched++
			if c.sink != nil {
				c.sink.Emit(obs.Event{Cycle: c.now, Kind: obs.EvDispatch, Track: obs.TrackCore, Addr: e.pc})
			}
			continue
		}
		c.wireOperands(idx, e, &fi.uop)
		c.ifqHead = ringNext(c.ifqHead, c.cfg.IFQSize)
		c.ifqLen--
		if isMem {
			c.lsqCount++
		}
		if e.isStore {
			c.storeCount++
			maskSet(c.storeMask, idx)
			maskSet(c.unresolvedMask, idx)
		}
		if c.sink != nil {
			c.sink.Emit(obs.Event{Cycle: c.now, Kind: obs.EvDispatch, Track: obs.TrackCore, Addr: e.pc})
		}
		if e.nsrc == 0 && !e.isLoad && fi.uop.Class == isa.ClassNop {
			e.state = stIssued
			e.doneCycle = c.now + 1
			c.inflight++
			maskSet(c.issueMask, idx)
			c.noteDone(e.doneCycle)
		} else if e.canAct() {
			maskSet(c.readyMask, idx)
		}
		c.stats.Dispatched++
	}
}

// wireOperands copies the pre-resolved register sources/destination from the
// micro-op and renames them against the RUU.
func (c *Core) wireOperands(idx int, e *entry, u *Uop) {
	e.isLoad = u.IsLoad
	e.isStore = u.IsStore
	e.isCtl = u.IsCtl
	e.nsrc = int(u.NSrc)
	for i := 0; i < e.nsrc; i++ {
		reg, fp := u.SrcReg[i], u.SrcFP[i]
		tag := -1
		if fp {
			tag = c.renameFP[reg]
		} else if reg != isa.RegZero {
			tag = c.renameInt[reg]
		}
		if tag == -1 {
			if fp {
				e.srcVal[i] = c.fregs[reg]
			} else {
				e.srcVal[i] = c.regs[reg]
			}
			e.srcTag[i] = -1
		} else if c.ruu[tag].state == stDone {
			e.srcVal[i] = c.ruu[tag].result
			e.srcTag[i] = -1
		} else {
			e.srcTag[i] = tag
			// Register with the producer so its completion broadcast can wake
			// this entry without scanning the window.
			p := &c.ruu[tag]
			p.consumers = append(p.consumers, int32(idx<<1|i))
		}
	}
	// Destination renaming happens after source lookup so an instruction
	// reading and writing the same register sees the old producer.
	if u.HasDest {
		e.hasDest = true
		e.destReg = u.DestReg
		e.destFP = u.DestFP
		if u.DestFP {
			c.renameFP[u.DestReg] = idx
		} else if u.DestReg != isa.RegZero {
			c.renameInt[u.DestReg] = idx
		}
	}
}

// ---------------------------------------------------------------- fetch --

func (c *Core) fetch() {
	if c.now < c.fetchBlocked || c.fetchFaulted {
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.ifqLen >= c.cfg.IFQSize {
			return
		}
		f := c.mem.FetchInst(c.now, c.pc, c.fetchTag)
		// Every FetchInst is a timed access with memory-system side effects
		// (cache fills, auth requests), so any call counts as progress.
		c.progress = true
		if f.Fault {
			// Fetch ran off into an unmapped page (wrong path, or a wild
			// indirect target). Stall until a redirect rescues us.
			c.fetchFaulted = true
			return
		}
		if f.Ready > c.now {
			c.fetchBlocked = f.Ready
			return
		}
		fi := &c.ifq[ringAdd(c.ifqHead, c.ifqLen, c.cfg.IFQSize)]
		*fi = fetchedInst{
			pc:           c.pc,
			instAuthDone: f.AuthDone,
		}
		if cached, ok := c.uops.Lookup(c.pc, f.Word); ok {
			fi.uop = *cached
			if c.perf != nil {
				c.perf.UopHits++
			}
		} else {
			fi.uop = DecodeUop(f.Word)
			if c.perf != nil {
				if c.uops != nil {
					c.perf.UopMisses++
				} else {
					c.perf.UopNoCache++
				}
			}
		}
		inst := fi.uop.Inst
		npc := c.pc + isa.InstBytes
		stop := false
		switch fi.uop.Class {
		case isa.ClassBranch:
			fi.predTaken = c.bp.PredictCond(c.pc)
			if fi.predTaken {
				npc = isa.BranchTarget(c.pc, inst.Imm)
				stop = true
			}
		case isa.ClassJump:
			if inst.Op == isa.OpJAL {
				npc = isa.BranchTarget(c.pc, inst.Imm)
				if inst.Rd == isa.RegRA {
					c.bp.PushRAS(c.pc + isa.InstBytes)
				}
			} else { // JALR
				if inst.Rd == isa.RegZero && inst.Rs1 == isa.RegRA {
					if t, ok := c.bp.PopRAS(); ok {
						npc = t
					} else if t, ok := c.bp.LookupBTB(c.pc); ok {
						npc = t
					}
				} else {
					if t, ok := c.bp.LookupBTB(c.pc); ok {
						npc = t
					}
					if inst.Rd == isa.RegRA {
						c.bp.PushRAS(c.pc + isa.InstBytes)
					}
				}
			}
			stop = true
		}
		fi.predNPC = npc
		c.ifqLen++
		c.stats.Fetched++
		if c.sink != nil {
			c.sink.Emit(obs.Event{Cycle: c.now, Kind: obs.EvFetch, Track: obs.TrackCore, Addr: fi.pc})
		}
		c.pc = npc
		if stop {
			// Fetch now follows a (predicted) control transfer; requests
			// issued after this instant must not gate its external fetches.
			c.fetchTag = c.mem.LastAuthRequest(c.now)
			return // taken control flow ends the fetch group
		}
	}
}

func f64(bitsv uint64) float64 { return float64frombits(bitsv) }

func f64bits(f float64) uint64 { return float64bits(f) }
