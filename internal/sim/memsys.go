// Package sim assembles the full secure processor: the out-of-order core,
// the L1/L2 cache hierarchy with TLBs, the secure memory controller with its
// authentication queue, the DRAM and bus models, and the program loader. It
// exposes the scheme selector that realizes the paper's authentication
// control points (Section 4.2), and the Run loop that detects security
// exceptions raised by failed integrity verification.
package sim

import (
	"fmt"

	"authpoint/internal/cache"
	"authpoint/internal/mem"
	"authpoint/internal/obs"
	"authpoint/internal/pipeline"
	"authpoint/internal/secmem"
)

// MemConfig describes the on-chip memory hierarchy (Table 3).
type MemConfig struct {
	L1IB, L1ILineB, L1IWays int
	L1DB, L1DLineB, L1DWays int
	L1Lat                   int
	L2B, L2LineB, L2Ways    int
	L2Lat                   int

	ITLBEntries, DTLBEntries, TLBWays int
	TLBMissPenalty                    int

	StoreBufSize int
	DrainPerTick int

	// GateFetch implements authen-then-fetch: an external fetch may not be
	// granted bus cycles until the authentication request associated with
	// the triggering instruction has completed (the LastRequest-register
	// variant of Section 4.2.4).
	GateFetch bool

	// FetchDrain selects Section 4.2.4's simpler drain variant instead: a
	// new external fetch waits until the authentication queue has drained
	// every request that had entered it by the time the fetch reached the
	// memory system, regardless of which instruction triggered it. Cheaper
	// to build, strictly more conservative. Only meaningful with GateFetch.
	FetchDrain bool

	// UseAtAuth makes load values usable only after their line verified
	// (the operand half of authen-then-issue).
	UseAtAuth bool

	// NextLinePrefetch adds a tagged next-line prefetcher at the L2: every
	// demand miss also fetches the following line. Prefetches are real
	// external fetches — they occupy the bus, enqueue verification
	// requests, take a miss register, and are subject to the same
	// authentication gates.
	NextLinePrefetch bool

	// MSHRs bounds the number of outstanding external line fetches
	// (0 = unbounded, the default; a negative count is an error). With a
	// bound, a miss arriving while all miss registers are busy waits for
	// the earliest in-flight fill, and a prefetch is dropped.
	MSHRs int
}

// DefaultMemConfig returns the paper's Table 3 hierarchy with a 256KB L2.
func DefaultMemConfig() MemConfig {
	return MemConfig{
		L1IB: 16 << 10, L1ILineB: 32, L1IWays: 1,
		L1DB: 16 << 10, L1DLineB: 32, L1DWays: 1,
		L1Lat: 1,
		L2B:   256 << 10, L2LineB: 64, L2Ways: 4,
		L2Lat:       4,
		ITLBEntries: 128, DTLBEntries: 128, TLBWays: 4,
		TLBMissPenalty: 30,
		StoreBufSize:   16,
		DrainPerTick:   2,
	}
}

type sbEntry struct {
	addr    uint64
	val     uint64
	size    int
	authTag uint64
	readyAt uint64 // fill-arrival cycle once the drain access was issued
}

// MemSystem implements pipeline.MemPort over the cache hierarchy and the
// secure memory controller.
type MemSystem struct {
	cfg  MemConfig
	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
	itlb *mem.TLB
	dtlb *mem.TLB

	ctrl   *secmem.Controller
	shadow *mem.Memory // architectural plaintext view (fills overwrite it)
	space  *mem.AddressSpace

	inflight []uint64 // usable-at cycles of outstanding fills (MSHR model)

	// wbBuf stages a victim line's plaintext for WriteBack — reused so
	// dirty-eviction churn does not allocate.
	wbBuf []byte

	// sb is a fixed-capacity ring (capacity StoreBufSize): the steady-state
	// commit/drain churn must not reallocate.
	sb            []sbEntry
	sbHead, sbLen int
	waitStoreAuth bool

	// tickProgress records whether the last Tick changed store-buffer or
	// hierarchy state (issued a drain access or retired an entry); false
	// licenses the idle-cycle fast-forward.
	tickProgress bool

	// rep is the answer of the last FetchInst that found its L1I line
	// ready, which later fetches of that line in the same cycle repeat
	// (see FetchInst). Every access through the hierarchy ends it.
	rep fetchRepeat

	// Stats.
	FetchGateWait uint64 // cycles external fetches (prefetches too) waited on then-fetch
	Prefetches    uint64
}

// fetchRepeat is one fetch's answer for the L1I line at line in cycle now.
type fetchRepeat struct {
	ok              bool
	now, line       uint64
	ready, authDone uint64
}

// NewMemSystem wires the hierarchy. shadow must already contain the
// program's plaintext (the loader guarantees fills and shadow agree at
// start).
func NewMemSystem(cfg MemConfig, ctrl *secmem.Controller, shadow *mem.Memory, space *mem.AddressSpace) (*MemSystem, error) {
	ms := new(MemSystem)
	if err := ms.reset(cfg, ctrl, shadow, space); err != nil {
		return nil, err
	}
	return ms, nil
}

// reset is NewMemSystem in place: it empties the caches (the L2 lines with
// their verification state), TLBs and store buffer and zeroes the counters,
// keeping their storage where cfg keeps their shapes. On an error the
// memory system is unusable.
func (ms *MemSystem) reset(cfg MemConfig, ctrl *secmem.Controller, shadow *mem.Memory, space *mem.AddressSpace) error {
	if cfg.L2LineB != ctrl.Config().LineB {
		return fmt.Errorf("sim: L2 line %dB != controller line %dB", cfg.L2LineB, ctrl.Config().LineB)
	}
	if cfg.L1ILineB > cfg.L2LineB || cfg.L1DLineB > cfg.L2LineB {
		return fmt.Errorf("sim: L1 lines larger than L2 line")
	}
	if cfg.StoreBufSize <= 0 || cfg.DrainPerTick <= 0 {
		return fmt.Errorf("sim: store buffer config must be positive")
	}
	if cfg.MSHRs < 0 {
		return fmt.Errorf("sim: negative MSHRs %d", cfg.MSHRs)
	}
	var err error
	if ms.l1i, err = resetCache(ms.l1i, cache.Config{Name: "l1i", SizeB: cfg.L1IB, LineB: cfg.L1ILineB, Ways: cfg.L1IWays}); err != nil {
		return err
	}
	if ms.l1d, err = resetCache(ms.l1d, cache.Config{Name: "l1d", SizeB: cfg.L1DB, LineB: cfg.L1DLineB, Ways: cfg.L1DWays, WriteBck: true}); err != nil {
		return err
	}
	if ms.l2, err = resetCache(ms.l2, cache.Config{Name: "l2", SizeB: cfg.L2B, LineB: cfg.L2LineB, Ways: cfg.L2Ways, WriteBck: true}); err != nil {
		return err
	}
	if ms.itlb == nil {
		ms.itlb, err = mem.NewTLB(cfg.ITLBEntries, cfg.TLBWays)
	} else {
		err = ms.itlb.Reset(cfg.ITLBEntries, cfg.TLBWays)
	}
	if err != nil {
		return err
	}
	if ms.dtlb == nil {
		ms.dtlb, err = mem.NewTLB(cfg.DTLBEntries, cfg.TLBWays)
	} else {
		err = ms.dtlb.Reset(cfg.DTLBEntries, cfg.TLBWays)
	}
	if err != nil {
		return err
	}
	sb := ms.sb
	if len(sb) != cfg.StoreBufSize {
		sb = make([]sbEntry, cfg.StoreBufSize)
	}
	clear(sb)
	wbBuf := ms.wbBuf
	if len(wbBuf) != cfg.L2LineB {
		wbBuf = make([]byte, cfg.L2LineB)
	}
	*ms = MemSystem{
		cfg: cfg, l1i: ms.l1i, l1d: ms.l1d, l2: ms.l2, itlb: ms.itlb, dtlb: ms.dtlb,
		ctrl: ctrl, shadow: shadow, space: space,
		wbBuf:    wbBuf,
		inflight: ms.inflight[:0],
		sb:       sb,
	}
	return nil
}

// resetCache empties c for cfg, or builds a cache for cfg if c is nil.
func resetCache(c *cache.Cache, cfg cache.Config) (*cache.Cache, error) {
	if c == nil {
		return cache.New(cfg)
	}
	return c, c.Reset(cfg)
}

// Caches returns the cache models (stats inspection).
func (ms *MemSystem) Caches() (l1i, l1d, l2 *cache.Cache) { return ms.l1i, ms.l1d, ms.l2 }

// SetObserver attaches an event sink to the three caches; clock supplies the
// core's current cycle (cache lookups carry no cycle of their own).
func (ms *MemSystem) SetObserver(s obs.Sink, clock func() uint64) {
	ms.l1i.SetObserver(s, obs.TrackL1I, clock)
	ms.l1d.SetObserver(s, obs.TrackL1D, clock)
	ms.l2.SetObserver(s, obs.TrackL2, clock)
}

// ResetCacheStats zeroes the hit/miss counters of all three caches (after
// warmup, so measured miss ratios exclude cold-start fills).
func (ms *MemSystem) ResetCacheStats() {
	ms.l1i.ResetStats()
	ms.l1d.ResetStats()
	ms.l2.ResetStats()
}

// TLBs returns the TLB models.
func (ms *MemSystem) TLBs() (itlb, dtlb *mem.TLB) { return ms.itlb, ms.dtlb }

// access runs one timed access through the hierarchy and returns the cycle
// the data is usable and the cycle the backing L2 line's verification
// completes (0 once the L2 has evicted the line).
func (ms *MemSystem) access(now uint64, addr uint64, isWrite, isInst bool, fetchTag uint64) (ready, authDone uint64, err error) {
	ms.rep.ok = false
	l1 := ms.l1d
	tlb := ms.dtlb
	if isInst {
		l1 = ms.l1i
		tlb = ms.itlb
	}
	// The L1 hit latency is part of the pipeline's stage structure (fetch
	// and load-execute stages each embed one L1 access), so an L1 hit is
	// ready at t; only miss latencies add cycles here.
	t := now
	if !tlb.Lookup(addr) {
		t += uint64(ms.cfg.TLBMissPenalty)
	}

	if l, hit := l1.Access(addr, isWrite); hit {
		if l2, ok := ms.l2.Probe(addr); ok {
			authDone = l2.AuthDone
		}
		return max(t, l.Aux), authDone, nil // l.Aux > t: fill still in flight
	}

	// L1 miss -> L2.
	t += uint64(ms.cfg.L2Lat)
	if l, hit := ms.l2.Access(addr, false); hit {
		ready = max(t, l.Aux)
		ms.fillL1(l1, addr, isWrite, ready)
		if isWrite {
			l.Dirty = true
		}
		return ready, l.AuthDone, nil
	}

	// L2 miss -> external fetch through the secure memory controller.
	if ms.cfg.MSHRs > 0 {
		t = ms.mshrAdmit(t)
	}
	var constraint uint64
	if ms.cfg.GateFetch {
		// Authen-then-fetch. LastRequest-register variant: the bus grant
		// waits for the request tagged at the triggering instruction's
		// issue — in-order completion means all earlier requests are done
		// too, so the program slice reaching this fetch is authenticated.
		// Drain variant: wait for everything in the queue right now.
		tag := fetchTag
		if ms.cfg.FetchDrain {
			tag = ms.ctrl.LastRequestAt(t)
		}
		constraint, _ = ms.ctrl.DoneAt(tag)
	}
	l2Line := ms.l2.LineAddr(addr)
	l, dataReady, err := ms.fillL2(now, t, l2Line, constraint)
	if err != nil {
		return 0, 0, err
	}
	if isWrite {
		l.Dirty = true
	}
	ready, authDone = l.Aux, l.AuthDone
	ms.fillL1(l1, addr, isWrite, ready)
	if ms.cfg.MSHRs > 0 {
		ms.inflight = append(ms.inflight, dataReady)
	}

	if ms.cfg.NextLinePrefetch {
		ms.prefetch(now, l2Line+uint64(ms.cfg.L2LineB), constraint)
	}
	return ready, authDone, nil
}

// fillL2 fetches the L2 line at lineAddr through the secure memory
// controller at cycle t, its bus grant held until gate, and installs it in
// the L2 with the cycle its data is usable (Aux) and the cycle its
// verification completes (AuthDone); a dirty victim is written back at
// cycle now. It returns the filled line and the cycle the fetched data
// arrived.
func (ms *MemSystem) fillL2(now, t, lineAddr, gate uint64) (*cache.Line, uint64, error) {
	res, err := ms.ctrl.Fetch(t, lineAddr, gate)
	if err != nil {
		return nil, 0, err
	}
	// Only a fetch the controller accepted waits for its bus grant: one it
	// refuses (an unprotected line, such as a wrong-path fetch past the
	// text) never reaches the bus.
	if gate > t {
		ms.FetchGateWait += gate - t
	}
	usable := res.PlainReady
	if ms.cfg.UseAtAuth && ms.ctrl.Config().Authenticate {
		usable = max(usable, res.AuthDone)
	}
	// The fetched (possibly tampered) bytes become what the core sees —
	// except where a committed store still sitting in the store buffer is
	// architecturally newer than the external copy (the write-allocate
	// fill of a fresh store target races its own drain).
	ms.shadow.Write(lineAddr, res.Data)
	ms.overlaySB(lineAddr)

	l, victim, evicted := ms.l2.Fill(lineAddr, false)
	l.Aux, l.AuthDone = usable, res.AuthDone
	if evicted && victim.Dirty {
		ms.shadow.ReadInto(ms.wbBuf, victim.Addr)
		if _, err := ms.ctrl.WriteBack(now, victim.Addr, ms.wbBuf); err != nil {
			return nil, 0, err
		}
	}
	return l, res.DataReady, nil
}

// mshrAdmit models a bounded miss-register file: prune fills that complete
// by cycle t; if all registers remain busy, the new miss stalls until the
// earliest one frees. Returns the admitted start cycle.
func (ms *MemSystem) mshrAdmit(t uint64) uint64 {
	live := ms.inflight[:0]
	for _, u := range ms.inflight {
		if u > t {
			live = append(live, u)
		}
	}
	ms.inflight = live
	for len(ms.inflight) >= ms.cfg.MSHRs {
		earliest := 0
		for i := 1; i < len(ms.inflight); i++ {
			if ms.inflight[i] < ms.inflight[earliest] {
				earliest = i
			}
		}
		t = ms.inflight[earliest]
		ms.inflight = append(ms.inflight[:earliest], ms.inflight[earliest+1:]...)
	}
	return t
}

// prefetch fetches one line into the L2 without a waiting consumer. Like a
// demand miss it takes a miss register, held until its data arrives. A
// prefetch that finds every register busy, or that errors (e.g. running off
// the protected region), is silently dropped, as hardware would. The demand
// miss that issues it has just freed every register whose fill arrived by
// its own admission, no earlier than now, so each register still held is
// busy at now.
func (ms *MemSystem) prefetch(now uint64, lineAddr uint64, constraint uint64) {
	if _, hit := ms.l2.Probe(lineAddr); hit {
		return
	}
	if ms.cfg.MSHRs > 0 && len(ms.inflight) >= ms.cfg.MSHRs {
		return
	}
	_, dataReady, err := ms.fillL2(now, now, lineAddr, constraint)
	if err != nil {
		return
	}
	ms.Prefetches++
	if ms.cfg.MSHRs > 0 {
		ms.inflight = append(ms.inflight, dataReady)
	}
}

// fillL1 installs an L1 line, pushing dirty victims down into the L2.
func (ms *MemSystem) fillL1(l1 *cache.Cache, addr uint64, isWrite bool, readyAt uint64) {
	l, victim, evicted := l1.Fill(addr, isWrite)
	l.Aux = readyAt
	if evicted && victim.Dirty {
		// Inclusive hierarchy: the victim's L2 line is normally resident.
		ms.l2.Access(victim.Addr, true)
	}
}

// FetchInst implements pipeline.MemPort. A fetch whose ITLB and L1I lookups
// hit a line that is ready by now is repeated for every later fetch of that
// L1I line in the same cycle, until another access goes through the
// hierarchy: the line's page is mapped, the page and the line are the most
// recently used of their sets, and the L2 line under it is unchanged, so a
// full lookup would give the same ready cycle and AuthDone. The repeat
// charges what that lookup would charge, an ITLB hit and an L1I hit with its
// EvCacheHit event, and reads its own word.
func (ms *MemSystem) FetchInst(now uint64, addr uint64, fetchTag uint64) pipeline.InstFetch {
	line := ms.l1i.LineAddr(addr)
	if r := &ms.rep; r.ok && r.now == now && r.line == line {
		ms.itlb.RepeatHit()
		ms.l1i.RepeatHit(addr)
		return pipeline.InstFetch{
			Word:     uint32(ms.shadow.ReadUint(addr, 4)),
			Ready:    r.ready,
			AuthDone: r.authDone,
		}
	}
	if !ms.space.Valid(addr) {
		return pipeline.InstFetch{Fault: true}
	}
	ready, authDone, err := ms.access(now, addr, false, true, fetchTag)
	if err != nil {
		return pipeline.InstFetch{Fault: true}
	}
	// Only an ITLB and L1I hit on a filled line is ready at once.
	if ready <= now {
		ms.rep = fetchRepeat{ok: true, now: now, line: line, ready: ready, authDone: authDone}
	}
	return pipeline.InstFetch{
		Word:     uint32(ms.shadow.ReadUint(addr, 4)),
		Ready:    ready,
		AuthDone: authDone,
	}
}

// ReadData implements pipeline.MemPort. The core asks only for addresses
// ValidAddr accepted in the same cycle.
func (ms *MemSystem) ReadData(now uint64, addr uint64, size int, fetchTag uint64) pipeline.DataRead {
	ready, authDone, err := ms.access(now, addr, false, false, fetchTag)
	if err != nil {
		return pipeline.DataRead{}
	}
	return pipeline.DataRead{
		Raw:      ms.shadow.ReadUint(addr, size),
		Ready:    ready,
		AuthDone: authDone,
	}
}

// sbSlot returns the store-buffer ring slot k entries past the head, for
// k <= StoreBufSize. It compares and wraps where (sbHead+k)%StoreBufSize
// would divide.
func (ms *MemSystem) sbSlot(k int) int {
	i := ms.sbHead + k
	if i >= len(ms.sb) {
		i -= len(ms.sb)
	}
	return i
}

// overlaySB re-applies committed-but-undrained stores that land in a freshly
// filled line: the store buffer is architecturally newer than the external
// copy (the write-allocate fill of a fresh store target races its own drain).
func (ms *MemSystem) overlaySB(lineAddr uint64) {
	lineEnd := lineAddr + uint64(ms.cfg.L2LineB)
	for i := 0; i < ms.sbLen; i++ {
		e := &ms.sb[ms.sbSlot(i)]
		if e.addr >= lineAddr && e.addr < lineEnd {
			ms.shadow.WriteUint(e.addr, e.val, e.size)
		}
	}
}

// CommitStore implements pipeline.MemPort: architectural memory updates
// immediately; the timed cache write drains from the store buffer.
func (ms *MemSystem) CommitStore(now uint64, addr uint64, val uint64, size int, authTag uint64) bool {
	if ms.sbLen >= ms.cfg.StoreBufSize {
		return false
	}
	ms.shadow.WriteUint(addr, val, size)
	ms.sb[ms.sbSlot(ms.sbLen)] = sbEntry{addr: addr, val: val, size: size, authTag: authTag}
	ms.sbLen++
	return true
}

// Tick drains the store buffer. Under authen-then-write a store may not
// update the cache (and hence never external memory) until the
// authentication request tagged at its issue has verified. A draining store
// occupies its buffer slot until its write-allocate fill arrives, so a
// store-miss stream throttles commit through store-buffer backpressure —
// without this, the core races arbitrarily far ahead of the memory system.
func (ms *MemSystem) Tick(now uint64) {
	ms.tickProgress = false
	drained := 0
	for ms.sbLen > 0 && drained < ms.cfg.DrainPerTick {
		e := &ms.sb[ms.sbHead]
		if ms.waitStoreAuth {
			done, _ := ms.ctrl.DoneAt(e.authTag)
			if now < done {
				return // head-of-line: wait (failure halts the machine anyway)
			}
		}
		if e.readyAt == 0 {
			ready, _, err := ms.access(now, e.addr, true, false, e.authTag)
			if err != nil {
				return
			}
			if ready < now+1 {
				ready = now + 1
			}
			e.readyAt = ready
			ms.tickProgress = true
		}
		if now < e.readyAt {
			return
		}
		ms.sbHead = ms.sbSlot(1)
		ms.sbLen--
		drained++
		ms.tickProgress = true
	}
}

// TickProgressed reports whether the last Tick changed state. False means
// the store buffer is idle (or blocked) until the cycle NextEventAt names.
func (ms *MemSystem) TickProgressed() bool { return ms.tickProgress }

// NextEventAt returns the earliest cycle >= now at which Tick could act,
// valid only right after a Tick that reported no progress. A value <= now
// vetoes skipping; neverCycle (when the buffer is empty) imposes no bound.
func (ms *MemSystem) NextEventAt(now uint64) uint64 {
	if ms.sbLen == 0 {
		return ^uint64(0)
	}
	e := &ms.sb[ms.sbHead]
	if ms.waitStoreAuth {
		if done, _ := ms.ctrl.DoneAt(e.authTag); now < done {
			return done
		}
	}
	if e.readyAt == 0 || now >= e.readyAt {
		return now // head could act immediately: cannot skip
	}
	return e.readyAt
}

// SetStoreWaitAuth enables authen-then-write gating in the store buffer.
func (ms *MemSystem) SetStoreWaitAuth(on bool) { ms.waitStoreAuth = on }

// StoreBufferEmpty reports whether all committed stores have drained.
func (ms *MemSystem) StoreBufferEmpty() bool { return ms.sbLen == 0 }

// ValidAddr implements pipeline.MemPort.
func (ms *MemSystem) ValidAddr(addr uint64) bool { return ms.space.Valid(addr) }

// LogFault implements pipeline.MemPort.
func (ms *MemSystem) LogFault(addr uint64) { ms.space.Fault(addr) }

// LastAuthRequest implements pipeline.MemPort.
func (ms *MemSystem) LastAuthRequest(now uint64) uint64 { return ms.ctrl.LastRequestAt(now) }
