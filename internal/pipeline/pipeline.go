// Package pipeline implements the 8-wide out-of-order core of the simulated
// secure processor: fetch with branch prediction, dispatch into a
// SimpleScalar-style Register Update Unit (RUU), dataflow issue to functional
// units, a load/store queue with store-to-load forwarding, and in-order
// commit.
//
// Two properties matter for the paper and shape the design:
//
//  1. Execution is value-accurate along *both* correct and wrong paths:
//     speculatively fetched instructions — including tampered,
//     not-yet-authenticated ones — really execute with real operand values,
//     and their loads really reach the memory system. That is precisely the
//     behaviour that turns memory fetch into a side channel.
//
//  2. The authentication control points are commit-/issue-/write-time gates
//     driven by the secure memory controller's per-line verification
//     results (Config.GateIssue, GateCommit, StoreWaitAuth; the fetch gate
//     lives in the memory system, which sees every external fetch).
package pipeline

import (
	"fmt"
	"math/bits"

	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/isa"
	"authpoint/internal/obs"
)

// Config parameterizes the core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	RUUSize     int
	LSQSize     int
	IFQSize     int

	IntMulLat int
	IntDivLat int
	FPLat     int
	FPDivLat  int

	// GateIssue implements authen-then-issue: an instruction may not issue
	// until the authentication of its own I-line has completed. (Operand
	// gating is realized by the memory system returning load values at
	// their authentication-completion cycle under this policy.)
	GateIssue bool

	// GateCommit implements authen-then-commit: the RUU head may not commit
	// until the authentication requests covering the instruction and its
	// loaded data have completed.
	GateCommit bool

	// StoreWaitAuth implements authen-then-write: committed stores carry
	// the LastRequest tag captured at issue, and the memory system's store
	// buffer refuses to release them externally until that request
	// verifies.
	StoreWaitAuth bool

	// PACMode selects the pointer-authentication auth-failure behaviour
	// (policy dimensions pac/fpac). The zero value (off) makes auth behave
	// as strip — the pre-PAC machine, bit- and cycle-identical. Only the
	// mismatch branch of pacmac.Suite.Auth reads it, and the core counts
	// those mismatches (Stats.AuthMismatches), so a run that counts none
	// would have run the same under any mode.
	PACMode pacmac.Mode

	// PACLat is the keyed MAC unit's latency for sign/auth (strip is a
	// 1-cycle bitmask and does not occupy the unit).
	PACLat int

	Predictor PredictorConfig
}

// DefaultConfig returns the paper's Table 3 core.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		IssueWidth:  8,
		CommitWidth: 8,
		RUUSize:     128,
		LSQSize:     64,
		IFQSize:     32,
		IntMulLat:   3,
		IntDivLat:   12,
		FPLat:       4,
		FPDivLat:    12,
		PACLat:      4,
		Predictor:   DefaultPredictorConfig(),
	}
}

// FaultKind classifies architectural faults.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone FaultKind = iota
	FaultIllegalInst
	FaultBadAddr
	FaultMisaligned
	FaultPACAuth
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultIllegalInst:
		return "illegal-instruction"
	case FaultBadAddr:
		return "invalid-address"
	case FaultMisaligned:
		return "misaligned-access"
	case FaultPACAuth:
		return "pac-auth-failure"
	}
	return "?"
}

type entryState uint8

const (
	stWaiting entryState = iota
	stIssued
	stDone
)

// entry is one RUU slot. The word-sized fields come first and the flags
// last, so the slot carries no padding between them.
type entry struct {
	seq  uint64
	pc   uint64
	inst isa.Inst

	nsrc   int
	srcTag [2]int // producer RUU index, -1 = value captured
	srcVal [2]uint64
	result uint64

	doneCycle uint64

	addr    uint64
	memSize int
	blocker int // a parked load's blocking store, an RUU index (see parkMask)

	predNPC   uint64
	actualNPC uint64

	instAuthDone uint64
	dataAuthDone uint64
	authTagIssue uint64 // LastRequest at issue (authen-then-write tag)

	faultAddr uint64

	// consumers lists dependents registered at their dispatch, packed as
	// ruuIndex<<1 | srcSlot. Broadcast walks this list instead of scanning
	// the whole window; records for squashed or reused consumer slots are
	// filtered by the (valid, srcTag == producer) check at wake time. The
	// backing array is preserved across slot reuse so steady-state dispatch
	// does not allocate.
	consumers []int32

	valid     bool
	state     entryState
	hasDest   bool
	destFP    bool
	destReg   uint8
	isLoad    bool
	isStore   bool
	addrValid bool
	isCtl     bool
	predTaken bool // conditional prediction, for trainer
	isCond    bool
	taken     bool
	fault     FaultKind
}

type fetchedInst struct {
	pc           uint64
	uop          Uop
	predNPC      uint64
	predTaken    bool
	instAuthDone uint64
}

// Stats counts core events.
type Stats struct {
	Cycles      uint64
	Fetched     uint64
	Dispatched  uint64
	Issued      uint64
	Committed   uint64
	Squashed    uint64
	Mispredicts uint64
	Forwards    uint64

	// Stall accounting (cycles in which the stage was blocked for the
	// given reason while work was available).
	CommitAuthStall uint64 // authen-then-commit head waiting for verification
	IssueAuthStall  uint64 // authen-then-issue holding an operand-ready entry
	SBFullStall     uint64 // store buffer full at commit

	// AuthMismatches counts executed pointer auths whose tag did not match,
	// committed or squashed. PACMode is read only when one mismatches, so a
	// run that counts zero is cycle- and bit-identical under every mode.
	// sim.Machine.Counts does not print it.
	AuthMismatches uint64
}

// Core is the out-of-order processor core.
type Core struct {
	cfg  Config
	mem  MemPort
	bp   *Predictor
	pacs pacmac.Suite // keyed MAC unit behind sign/auth

	pc    uint64
	regs  [isa.NumIntRegs]uint64
	fregs [isa.NumFPRegs]uint64

	renameInt [isa.NumIntRegs]int
	renameFP  [isa.NumFPRegs]int

	ruu   []entry
	head  int
	tail  int
	count int

	lsqCount   int
	storeCount int // stores in the RUU window (skip disambiguation scans when 0)

	// ifq is a fixed-capacity ring (capacity IFQSize): the steady-state
	// fetch/dispatch churn must not reallocate.
	ifq          []fetchedInst
	ifqHead      int
	ifqLen       int
	fetchBlocked uint64 // no fetch before this cycle
	fetchFaulted bool   // fetch ran into an unmapped page; waits for redirect
	fetchTag     uint64 // LastRequest at the control transfer steering fetch

	uops *UopCache // pre-decoded static text (nil = decode per fetch)

	nextSeq uint64
	now     uint64

	inflight     int    // RUU entries in stIssued
	earliestDone uint64 // lower bound on the next completion cycle

	// Occupancy bitmaps over RUU slots, one bit per slot. Stage scans
	// iterate set bits in ring age order instead of walking the whole
	// window, so a full 128-entry RUU with three entries the issue stage
	// can act on costs three visits, not 128.
	//
	// readyMask holds exactly the waiting entries the issue stage can act
	// on (entry.canAct): every operand captured, or a store whose address
	// operand has arrived but whose address is not computed yet. parkMask
	// holds the waiting loads that memory disambiguation blocked, each on
	// the one store whose change can unblock it (entry.blocker, named by
	// disambiguate). When that store's address is computed, its data
	// arrives or it commits, unpark returns its loads, and only those, to
	// readyMask, so a parked load is always still blocked by its blocker.
	// Waiting entries in neither mask wait for an operand broadcast.
	// issueMask holds the issued, incomplete entries and storeMask the
	// stores (any state).
	readyMask []uint64
	parkMask  []uint64
	issueMask []uint64
	storeMask []uint64

	// The store filter over the stores in the window, which lets a load
	// skip the disambiguation scan (filterClears). unresolvedMask holds the
	// stores whose address is not computed yet; storeWords counts, per
	// bucket of 8-byte words (addr>>3 mod 256), the stores whose computed
	// address is aligned, and misalignedStores those whose computed
	// address is not. A count reaches the window's store count at most,
	// which an RUU of any size keeps within int32.
	unresolvedMask   []uint64
	storeWords       [256]int32
	misalignedStores int

	halted   bool
	fault    FaultKind
	faultPC  uint64
	faultVal uint64

	// progress records whether the last Step changed any machine state
	// beyond per-cycle stall accounting. A false value licenses the
	// idle-cycle fast-forward (NextEventAt/SkipTo): every stage's behaviour
	// is then a pure function of (unchanged state, cycle number) until the
	// next pending event.
	progress bool

	outLog []OutEvent

	// CommitHook, when set, observes every committed instruction in program
	// order (pc, instruction, result value). Used by tracing tools and
	// lockstep differential tests.
	CommitHook func(pc uint64, inst isa.Inst, result uint64)

	sink        obs.Sink
	stallActive [obs.NumStallReasons]bool

	// perf is the fast-path perf-counter block (nil = counting off; every
	// increment site is guarded by a nil check, like sink emission).
	perf *obs.Perf

	stats Stats
}

// SetObserver attaches an event sink. A nil sink (the default) keeps every
// emission site on the untaken-branch fast path.
func (c *Core) SetObserver(s obs.Sink) { c.sink = s }

// SetPerf attaches a fast-path perf-counter block. nil (the default) keeps
// every counting site on the untaken-branch fast path. Counting never
// perturbs simulated timing: the counters observe the fast-path machinery,
// they are not part of it.
func (c *Core) SetPerf(p *obs.Perf) { c.perf = p }

// stallBegin opens a stall interval for reason r (idempotent while open).
func (c *Core) stallBegin(r obs.StallReason) {
	if c.sink == nil || c.stallActive[r] {
		return
	}
	c.stallActive[r] = true
	c.sink.Emit(obs.Event{Cycle: c.now, Kind: obs.EvStallBegin, Track: obs.TrackCore, A: uint64(r)})
}

// stallEnd closes the stall interval for reason r if one is open.
func (c *Core) stallEnd(r obs.StallReason) {
	if c.sink == nil || !c.stallActive[r] {
		return
	}
	c.stallActive[r] = false
	c.sink.Emit(obs.Event{Cycle: c.now, Kind: obs.EvStallEnd, Track: obs.TrackCore, A: uint64(r)})
}

// New builds a core with architectural state zeroed and PC at entry: Reset
// on a zero Core.
func New(cfg Config, mem MemPort, entryPC uint64) (*Core, error) {
	c := new(Core)
	if err := c.Reset(cfg, mem, entryPC); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the core to the state New leaves under cfg: architectural
// state zeroed, PC at entry, every RUU and IFQ slot, occupancy mask and
// predictor table empty, counters zeroed, and no observer, perf block, µop
// cache or commit hook. The RUU, the IFQ, the masks and the predictor keep
// their storage when cfg keeps their sizes, and RUU slots keep their
// consumer lists' backing arrays. On an error the core is unusable.
func (c *Core) Reset(cfg Config, mem MemPort, entryPC uint64) error {
	if cfg.RUUSize <= 0 || cfg.LSQSize <= 0 || cfg.IFQSize <= 0 {
		return fmt.Errorf("pipeline: non-positive queue sizes %+v", cfg)
	}
	if cfg.FetchWidth <= 0 || cfg.IssueWidth <= 0 || cfg.CommitWidth <= 0 {
		return fmt.Errorf("pipeline: non-positive widths %+v", cfg)
	}
	// Dispatch writes the RUU from slot 0 on, so a core that dispatched n
	// entries used at most its first n slots.
	used := len(c.ruu)
	if c.nextSeq < uint64(used) {
		used = int(c.nextSeq)
	}
	ruu := c.ruu
	if len(ruu) != cfg.RUUSize {
		ruu, used = make([]entry, cfg.RUUSize), 0
	}
	for i := range ruu[:used] {
		ruu[i] = entry{consumers: ruu[i].consumers[:0]}
	}
	ifq := c.ifq
	if len(ifq) != cfg.IFQSize {
		ifq = make([]fetchedInst, cfg.IFQSize)
	}
	clear(ifq)
	words := (cfg.RUUSize + 63) / 64
	bp, pacs := c.bp, c.pacs
	if bp == nil {
		bp = NewPredictor(cfg.Predictor)
	} else {
		bp.reset(cfg.Predictor)
	}
	if pacs == (pacmac.Suite{}) {
		pacs = pacmac.DefaultSuite()
	}
	*c = Core{
		cfg:            cfg,
		mem:            mem,
		bp:             bp,
		pacs:           pacs,
		pc:             entryPC,
		ruu:            ruu,
		ifq:            ifq,
		readyMask:      resizeMask(c.readyMask, words),
		parkMask:       resizeMask(c.parkMask, words),
		issueMask:      resizeMask(c.issueMask, words),
		storeMask:      resizeMask(c.storeMask, words),
		unresolvedMask: resizeMask(c.unresolvedMask, words),
		outLog:         c.outLog[:0],
	}
	for i := range c.renameInt {
		c.renameInt[i] = -1
	}
	for i := range c.renameFP {
		c.renameFP[i] = -1
	}
	return nil
}

// resizeMask returns an all-clear mask of n words, reusing m's storage if
// it can.
func resizeMask(m []uint64, n int) []uint64 {
	m = resize(m, n)
	clear(m)
	return m
}

// SetReg initializes an architectural integer register (loader use).
func (c *Core) SetReg(r uint8, v uint64) { c.regs[r] = v }

// Reg reads an architectural integer register.
func (c *Core) Reg(r uint8) uint64 { return c.regs[r] }

// FReg reads an architectural FP register.
func (c *Core) FReg(r uint8) uint64 { return c.fregs[r] }

// PC returns the architectural (fetch) PC.
func (c *Core) PC() uint64 { return c.pc }

// Halted reports whether a HALT instruction has committed.
func (c *Core) Halted() bool { return c.halted }

// Faulted returns the architectural fault taken at commit, if any.
func (c *Core) Faulted() (FaultKind, uint64, uint64) { return c.fault, c.faultPC, c.faultVal }

// OutLog returns all OUT events retired so far.
func (c *Core) OutLog() []OutEvent { return c.outLog }

// Stats returns a copy of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Committed returns the committed-instruction count without copying the
// whole Stats struct (the Run loop reads it every iteration).
func (c *Core) Committed() uint64 { return c.stats.Committed }

// SetUopCache attaches a pre-decoded micro-op cache for the static text.
// nil (the default) decodes every fetched word directly — the reference
// behaviour the cache is pinned against.
func (c *Core) SetUopCache(uc *UopCache) { c.uops = uc }

// Predictor exposes the branch predictor (for stats).
func (c *Core) Predictor() *Predictor { return c.bp }

// ruuOrder iterates RUU indices from oldest to youngest.
func (c *Core) ruuOrder(f func(idx int, e *entry) bool) {
	for i, idx := 0, c.head; i < c.count; i, idx = i+1, ringNext(idx, c.cfg.RUUSize) {
		if !f(idx, &c.ruu[idx]) {
			return
		}
	}
}

// ringNext returns the slot after slot i of a ring of n slots. It compares
// and wraps where (i+1)%n would divide: the RUU and IFQ rings step on every
// instruction.
func ringNext(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// ringAdd returns the slot k after slot i of a ring of n slots, for i < n
// and k <= n, without dividing.
func ringAdd(i, k, n int) int {
	if i += k; i >= n {
		i -= n
	}
	return i
}

func maskSet(m []uint64, idx int)   { m[idx>>6] |= 1 << (idx & 63) }
func maskClear(m []uint64, idx int) { m[idx>>6] &^= 1 << (idx & 63) }

// operandsReady reports whether every source operand of e is captured.
func (e *entry) operandsReady() bool {
	return (e.nsrc < 1 || e.srcTag[0] == -1) && (e.nsrc < 2 || e.srcTag[1] == -1)
}

// canAct reports whether the issue stage can act on waiting entry e, the
// readyMask membership test: every operand captured, or a store whose
// address can be computed (base captured, address not computed yet) while
// its data is still outstanding.
func (e *entry) canAct() bool {
	return e.operandsReady() || e.isStore && !e.addrValid && e.srcTag[0] == -1
}

// unpark returns to readyMask the parked loads that the store at RUU index
// store blocks. It runs when that store's address is computed, its data
// arrives or it commits, the only events that can unblock those loads.
func (c *Core) unpark(store int) {
	for w, pm := range c.parkMask {
		for pm != 0 {
			i := bits.TrailingZeros64(pm)
			pm &= pm - 1
			if c.ruu[w<<6|i].blocker == store {
				c.parkMask[w] &^= 1 << i
				c.readyMask[w] |= 1 << i
			}
		}
	}
}

// maskOrder visits the set bits of m from RUU head to tail — oldest entry
// first, honouring the ring wrap. The mask invariant (bits only within the
// live window [head, head+count)) makes bit order within each segment equal
// age order. A bit that f sets for a younger entry is visited by the same
// walk (the issue scan's unpark relies on this).
func (c *Core) maskOrder(m []uint64, f func(idx int, e *entry) bool) {
	if c.count == 0 {
		return
	}
	end := c.head + c.count
	if end <= c.cfg.RUUSize {
		c.maskSeg(m, c.head, end, f)
		return
	}
	if c.maskSeg(m, c.head, c.cfg.RUUSize, f) {
		c.maskSeg(m, 0, end-c.cfg.RUUSize, f)
	}
}

// maskSeg visits set bits of m with indices in [lo, hi), ascending. It
// reports whether the caller should continue with the next segment.
func (c *Core) maskSeg(m []uint64, lo, hi int, f func(idx int, e *entry) bool) bool {
	w := lo >> 6
	cur := m[w] &^ (1<<(uint(lo)&63) - 1)
	for {
		base := w << 6
		for cur != 0 {
			idx := base + bits.TrailingZeros64(cur)
			if idx >= hi {
				return true
			}
			if !f(idx, &c.ruu[idx]) {
				return false
			}
			// Re-read the word past idx: f may have set or cleared bits.
			cur = m[w] &^ (2<<(uint(idx)&63) - 1)
		}
		w++
		if w<<6 >= hi {
			return true
		}
		cur = m[w]
	}
}

// Step advances the machine one cycle. Stages run in reverse pipeline order
// so same-cycle structural hazards resolve like hardware.
func (c *Core) Step() {
	if c.halted || c.fault != FaultNone {
		return
	}
	c.progress = false
	c.stats.Cycles++
	c.mem.Tick(c.now)
	c.commit()
	if c.halted || c.fault != FaultNone {
		c.progress = true
		c.now++
		return
	}
	c.writeback()
	c.issue()
	c.dispatch()
	c.fetch()
	c.now++
}

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// Progressed reports whether the last Step changed machine state beyond
// per-cycle stall accounting. Note it covers only the core's own stages;
// the memory system's Tick reports its progress separately.
func (c *Core) Progressed() bool { return c.progress }

// neverCycle is the "no pending event" sentinel for NextEventAt.
const neverCycle = ^uint64(0)

// NextEventAt returns the earliest future cycle at which a pipeline stage
// could act, assuming no external state changes. It is meaningful only
// immediately after a Step that reported no progress: the quiet Step proves
// every stage is blocked, so the blocking conditions' expiry cycles are the
// only times anything can happen. A return value <= Now() means the core
// cannot prove idleness (skip nothing); neverCycle means no event is
// pending (only external bounds — watchdog, security fault — apply).
//
// Comparisons are >= c.now, not > c.now: Step increments the clock after
// running its stages, so NextEventAt sees the cycle the NEXT Step's stages
// will observe. A deadline equal to c.now means that Step acts — returning
// c.now makes the machine take it as a normal step (the skip loop requires
// next > now).
func (c *Core) NextEventAt() uint64 {
	if c.halted || c.fault != FaultNone {
		return c.now
	}
	next := neverCycle
	if c.inflight > 0 {
		// Issued entries complete at earliestDone. A quiet writeback scan
		// always leaves it exact and in the future; 0 means "unknown,
		// recompute next Step" and vetoes skipping.
		if c.earliestDone <= c.now {
			return c.now
		}
		next = c.earliestDone
	}
	if c.count > 0 && c.cfg.GateCommit {
		if e := &c.ruu[c.head]; e.state == stDone {
			if gate := max(e.instAuthDone, e.dataAuthDone); gate >= c.now && gate < next {
				next = gate
			}
		}
	}
	if c.cfg.GateIssue {
		// Operand-ready entries held by authen-then-issue become eligible
		// when their I-line verification completes.
		c.maskOrder(c.readyMask, func(idx int, e *entry) bool {
			if !e.operandsReady() {
				return true
			}
			if e.instAuthDone >= c.now && e.instAuthDone < next {
				next = e.instAuthDone
			}
			return true
		})
	}
	if !c.fetchFaulted && c.ifqLen < c.cfg.IFQSize && c.fetchBlocked >= c.now && c.fetchBlocked < next {
		next = c.fetchBlocked
	}
	return next
}

// SkipTo advances the clock to cycle t without stepping, crediting the
// skipped cycles to the per-cycle stall counters exactly as the skipped
// Steps would have. The caller guarantees the window [Now(), t) is quiet:
// the previous Step made no progress and t does not exceed any component's
// NextEventAt, so the blocking conditions observed now hold for the whole
// window.
func (c *Core) SkipTo(t uint64) {
	if t <= c.now {
		return
	}
	delta := t - c.now
	c.stats.Cycles += delta
	if c.perf != nil {
		c.perf.SkipCalls++
		c.perf.SkipCycles += delta
	}
	if c.count > 0 {
		if e := &c.ruu[c.head]; e.state == stDone {
			if c.cfg.GateCommit && max(e.instAuthDone, e.dataAuthDone) > c.now {
				c.stats.CommitAuthStall += delta
			} else if e.fault == FaultNone && e.isStore {
				// Done, past the gate, not faulting, yet it did not commit
				// on the quiet Step: the store buffer refused it.
				c.stats.SBFullStall += delta
			}
		}
	}
	if c.cfg.GateIssue {
		// Like the issue stage, count each skipped cycle once if any
		// operand-ready entry is held.
		held := false
		c.maskOrder(c.readyMask, func(idx int, e *entry) bool {
			held = e.operandsReady() && e.instAuthDone > c.now
			return !held
		})
		if held {
			c.stats.IssueAuthStall += delta
		}
	}
	c.now = t
}
