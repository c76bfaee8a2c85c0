package pipeline

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/isa"
	"authpoint/internal/obs"
)

// testMem is a MemPort with perfect (configurable-latency) memory, used to
// test the core in isolation from the cache/secmem hierarchy.
type testMem struct {
	bytes map[uint64]byte
	valid func(uint64) bool

	instLat   uint64
	dataLat   uint64
	authDelay uint64 // authDone = ready + authDelay; 0 disables auth info

	nextAuthIdx uint64

	reads     []uint64 // addresses of ReadData calls (the side channel)
	stores    []storeRec
	faultLog  []uint64
	sbCap     int
	sbPending int
	sbDrain   uint64 // cycles per store-buffer drain slot; 0 = instant

	parked int      // parked loads seen after each Step, summed (run, runObserved)
	perf   obs.Perf // the core's fast-path counters (run, runObserved)
}

type storeRec struct {
	addr    uint64
	val     uint64
	size    int
	authTag uint64
}

func newTestMem(p *asm.Program) *testMem {
	m := &testMem{bytes: map[uint64]byte{}, sbCap: 1 << 30}
	tb := p.TextBytes()
	for i, b := range tb {
		m.bytes[p.TextBase+uint64(i)] = b
	}
	for i, b := range p.Data {
		m.bytes[p.DataBase+uint64(i)] = b
	}
	textEnd := p.TextBase + uint64(len(tb))
	dataEnd := p.DataBase + uint64(len(p.Data)) + 4096 // slack for .space-less stores
	m.valid = func(a uint64) bool {
		return (a >= p.TextBase && a < textEnd) || (a >= p.DataBase && a < dataEnd) ||
			(a >= 0x7f0000 && a < 0x800000) // stack region
	}
	return m
}

func (m *testMem) read(addr uint64, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.bytes[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (m *testMem) write(addr uint64, v uint64, n int) {
	for i := 0; i < n; i++ {
		m.bytes[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

func (m *testMem) FetchInst(now uint64, addr uint64, fetchTag uint64) InstFetch {
	if !m.valid(addr) {
		return InstFetch{Fault: true}
	}
	f := InstFetch{
		Word:  uint32(m.read(addr, 4)),
		Ready: now + m.instLat,
	}
	if m.authDelay > 0 {
		m.nextAuthIdx++
		f.AuthDone = f.Ready + m.authDelay
	}
	return f
}

func (m *testMem) ReadData(now uint64, addr uint64, size int, fetchTag uint64) DataRead {
	m.reads = append(m.reads, addr)
	r := DataRead{Raw: m.read(addr, size), Ready: now + m.dataLat}
	if m.authDelay > 0 {
		m.nextAuthIdx++
		r.AuthDone = r.Ready + m.authDelay
	}
	return r
}

func (m *testMem) CommitStore(now uint64, addr uint64, val uint64, size int, authTag uint64) bool {
	if m.sbPending >= m.sbCap {
		return false
	}
	if m.sbDrain > 0 {
		m.sbPending++
	}
	m.write(addr, val, size)
	m.stores = append(m.stores, storeRec{addr, val, size, authTag})
	return true
}

func (m *testMem) Tick(now uint64) {
	if m.sbDrain > 0 && m.sbPending > 0 && now%m.sbDrain == 0 {
		m.sbPending--
	}
}
func (m *testMem) ValidAddr(addr uint64) bool        { return m.valid(addr) }
func (m *testMem) LogFault(addr uint64)              { m.faultLog = append(m.faultLog, addr) }
func (m *testMem) LastAuthRequest(now uint64) uint64 { return m.nextAuthIdx }

// run assembles src, runs it to HALT (or maxCycles), and returns the core
// and memory for inspection.
func run(t *testing.T, src string, mutate func(*Config, *testMem), maxCycles int) (*Core, *testMem) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := newTestMem(p)
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg, m)
	}
	c, err := New(cfg, m, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPerf(&m.perf)
	c.SetReg(isa.RegSP, 0x7fff00)
	for i := 0; i < maxCycles && !c.Halted(); i++ {
		c.Step()
		m.parked += checkScheduler(t, c)
		if k, pc, addr := c.Faulted(); k != FaultNone {
			t.Fatalf("unexpected fault %v at pc=%#x addr=%#x", k, pc, addr)
		}
	}
	if !c.Halted() {
		t.Fatalf("did not halt in %d cycles (pc=%#x committed=%d)", maxCycles, c.PC(), c.Stats().Committed)
	}
	return c, m
}

// checkScheduler asserts the issue scheduler's invariant between Steps and
// returns the number of parked loads. readyMask and parkMask are disjoint,
// their union is exactly the waiting entries the issue stage can act on
// (every operand captured, or a store whose address can be computed), no
// bit is set outside the live window, every parked load is a load whose
// recorded blocker is the store that disambiguation, re-run without side
// effects, names now, and the store filter holds (checkStoreFilter).
func checkScheduler(t *testing.T, c *Core) int {
	t.Helper()
	for w := range c.readyMask {
		if both := c.readyMask[w] & c.parkMask[w]; both != 0 {
			t.Fatalf("cycle %d: ready and park masks share bits %#x in word %d", c.Now(), both, w)
		}
	}
	live := make([]bool, c.cfg.RUUSize)
	c.ruuOrder(func(idx int, e *entry) bool {
		live[idx] = true
		return true
	})
	bit := func(m []uint64, idx int) bool { return m[idx>>6]&(1<<(idx&63)) != 0 }
	parked := 0
	for idx := 0; idx < len(c.readyMask)*64; idx++ {
		inReady, inPark := bit(c.readyMask, idx), bit(c.parkMask, idx)
		if idx >= c.cfg.RUUSize || !live[idx] {
			if inReady || inPark {
				t.Fatalf("cycle %d: slot %d outside the live window has ready=%v park=%v", c.Now(), idx, inReady, inPark)
			}
			continue
		}
		e := &c.ruu[idx]
		want := e.valid && e.state == stWaiting &&
			(e.operandsReady() || e.isStore && !e.addrValid && e.srcTag[0] == -1)
		if (inReady || inPark) != want {
			t.Fatalf("cycle %d: slot %d (pc %#x, state %d, tags %v, store %v, addr valid %v) ready=%v park=%v, want one of them %v",
				c.Now(), idx, e.pc, e.state, e.srcTag, e.isStore, e.addrValid, inReady, inPark, want)
		}
		if !inPark {
			continue
		}
		parked++
		if !e.isLoad || !e.addrValid {
			t.Fatalf("cycle %d: parked slot %d (pc %#x) is not a load with its address computed", c.Now(), idx, e.pc)
		}
		if _, b, _ := c.disambiguate(e); b != e.blocker {
			t.Fatalf("cycle %d: parked load at slot %d (pc %#x) waits on slot %d, but disambiguation names %d",
				c.Now(), idx, e.pc, e.blocker, b)
		}
	}
	checkStoreFilter(t, c)
	return parked
}

// checkStoreFilter asserts the store filter's invariant between Steps. It
// re-derives the filter's state from the window (the stores whose address
// is not computed, the aligned stores per 8-byte-word bucket and the
// misaligned stores) and checks the core's copy against it. Then, for each
// waiting load whose address is or can now be computed, it checks that if
// the filter would clear the load, disambiguation re-run without side
// effects finds neither a store to forward from nor one that blocks it.
func checkStoreFilter(t *testing.T, c *Core) {
	t.Helper()
	unresolved := make([]uint64, len(c.unresolvedMask))
	var words [256]int
	misalignedN := 0
	c.ruuOrder(func(idx int, e *entry) bool {
		switch {
		case !e.isStore:
		case !e.addrValid:
			maskSet(unresolved, idx)
		case misaligned(e.addr, e.memSize):
			misalignedN++
		default:
			words[uint8(e.addr>>3)]++
		}
		return true
	})
	for w := range unresolved {
		if unresolved[w] != c.unresolvedMask[w] {
			t.Fatalf("cycle %d: unresolved-store mask word %d is %#x, the window's unresolved stores %#x",
				c.Now(), w, c.unresolvedMask[w], unresolved[w])
		}
	}
	for b, n := range words {
		if int(c.storeWords[b]) != n {
			t.Fatalf("cycle %d: store filter counts %d stores in word bucket %d, the window holds %d",
				c.Now(), c.storeWords[b], b, n)
		}
	}
	if misalignedN != c.misalignedStores {
		t.Fatalf("cycle %d: store filter counts %d misaligned stores, the window holds %d",
			c.Now(), c.misalignedStores, misalignedN)
	}
	c.ruuOrder(func(idx int, e *entry) bool {
		if !e.isLoad || e.state != stWaiting || c.storeCount == 0 {
			return true
		}
		probe := *e
		if !probe.addrValid {
			if probe.srcTag[0] != -1 {
				return true
			}
			probe.addr = probe.srcVal[0] + uint64(int64(probe.inst.Imm))
			probe.memSize = probe.inst.MemBytes()
			probe.addrValid = true
		}
		if !c.filterClears(&probe) {
			return true
		}
		if f, b, _ := c.disambiguate(&probe); f != nil || b >= 0 {
			t.Fatalf("cycle %d: the store filter clears the load at slot %d (pc %#x, %d bytes at %#x), "+
				"but disambiguation finds a store to forward from (%v) or a blocker (slot %d)",
				c.Now(), idx, e.pc, probe.memSize, probe.addr, f != nil, b)
		}
		return true
	})
}

func TestStraightLineALU(t *testing.T) {
	c, _ := run(t, `
		_start:
			addi r1, r0, 5
			addi r2, r0, 7
			add  r3, r1, r2
			mul  r4, r3, r3
			sub  r5, r4, r1
			xor  r6, r5, r2
			halt
	`, nil, 1000)
	if c.Reg(3) != 12 || c.Reg(4) != 144 || c.Reg(5) != 139 || c.Reg(6) != 139^7 {
		t.Errorf("regs: r3=%d r4=%d r5=%d r6=%d", c.Reg(3), c.Reg(4), c.Reg(5), c.Reg(6))
	}
	if c.Stats().Committed != 7 {
		t.Errorf("committed %d", c.Stats().Committed)
	}
}

func TestLoopSum(t *testing.T) {
	c, _ := run(t, `
		_start:
			addi r1, r0, 0      ; sum
			addi r2, r0, 10     ; i = 10
		loop:
			add  r1, r1, r2
			addi r2, r2, -1
			bne  r2, r0, loop
			halt
	`, nil, 5000)
	if c.Reg(1) != 55 {
		t.Errorf("sum = %d want 55", c.Reg(1))
	}
}

func TestLoadStoreAndForwarding(t *testing.T) {
	c, m := run(t, `
		_start:
			la   r2, buf
			addi r1, r0, 1234
			sd   r1, 0(r2)
			ld   r3, 0(r2)      ; should forward from the store
			addi r4, r3, 1
			sw   r4, 8(r2)
			lw   r5, 8(r2)
			lb   r6, 0(r2)      ; low byte of 1234 = 210
			halt
		.data
		buf: .space 64
	`, nil, 5000)
	if c.Reg(3) != 1234 || c.Reg(5) != 1235 {
		t.Errorf("r3=%d r5=%d", c.Reg(3), c.Reg(5))
	}
	if c.Reg(6) != uint64(0xffffffffffffffd2) {
		t.Errorf("lb sign extension: %#x", c.Reg(6))
	}
	if c.Stats().Forwards == 0 {
		t.Error("no store-to-load forwarding observed")
	}
	if len(m.stores) != 2 {
		t.Errorf("stores committed: %d", len(m.stores))
	}
}

func TestDataDependentBranches(t *testing.T) {
	// Count set bits of a value: mixes loads, shifts, and unpredictable
	// branches.
	c, _ := run(t, `
		_start:
			la   r2, val
			ld   r1, 0(r2)
			addi r3, r0, 0      ; popcount
			addi r4, r0, 64     ; bits remaining
		loop:
			andi r5, r1, 1
			add  r3, r3, r5
			srli r1, r1, 1
			addi r4, r4, -1
			bne  r4, r0, loop
			halt
		.data
		val: .word 0xdeadbeefcafebabe
	`, nil, 20000)
	want := uint64(0)
	for v := uint64(0xdeadbeefcafebabe); v != 0; v >>= 1 {
		want += v & 1
	}
	if c.Reg(3) != want {
		t.Errorf("popcount %d want %d", c.Reg(3), want)
	}
}

func TestCallReturnRAS(t *testing.T) {
	c, _ := run(t, `
		_start:
			addi r1, r0, 0
			call f
			call f
			call f
			halt
		f:
			addi r1, r1, 7
			ret
	`, nil, 5000)
	if c.Reg(1) != 21 {
		t.Errorf("r1 = %d want 21", c.Reg(1))
	}
}

func TestRecursiveFactorial(t *testing.T) {
	c, _ := run(t, `
		_start:
			addi r1, r0, 6      ; n
			call fact
			halt
		; fact: r2 = r1!
		fact:
			addi r2, r0, 1
			beq  r1, r0, base
			addi sp, sp, -16
			sd   ra, 0(sp)
			sd   r1, 8(sp)
			addi r1, r1, -1
			call fact
			ld   r1, 8(sp)
			ld   ra, 0(sp)
			addi sp, sp, 16
			mul  r2, r2, r1
		base:
			ret
	`, nil, 20000)
	if c.Reg(2) != 720 {
		t.Errorf("6! = %d want 720", c.Reg(2))
	}
}

func TestFPPipeline(t *testing.T) {
	c, _ := run(t, `
		_start:
			la     r2, vals
			fld    f1, 0(r2)
			fld    f2, 8(r2)
			fadd   f3, f1, f2
			fmul   f4, f3, f3
			fdiv   f5, f4, f2
			fneg   f6, f5
			fcvtfi r3, f4
			addi   r4, r0, 3
			fcvtif f7, r4
			fsd    f4, 16(r2)
			fld    f8, 16(r2)
			fblt   f1, f2, less
			addi   r5, r0, 99
		less:
			halt
		.data
		vals: .float 1.5, 2.5
		      .space 16
	`, nil, 5000)
	get := func(r uint8) float64 { return float64frombits(c.FReg(r)) }
	if get(3) != 16 && c.Reg(3) != 16 {
		t.Errorf("fcvtfi: %d", c.Reg(3))
	}
	if get(4) != 16.0 {
		t.Errorf("f4 = %v", get(4))
	}
	if get(5) != 6.4 {
		t.Errorf("f5 = %v", get(5))
	}
	if get(6) != -6.4 {
		t.Errorf("f6 = %v", get(6))
	}
	if get(7) != 3.0 {
		t.Errorf("f7 = %v", get(7))
	}
	if get(8) != 16.0 {
		t.Errorf("fsd/fld round trip: %v", get(8))
	}
	if c.Reg(5) != 0 {
		t.Error("fblt fell through incorrectly")
	}
}

func TestOutInstructionCommitsInOrder(t *testing.T) {
	c, _ := run(t, `
		_start:
			addi r1, r0, 17
			out  r1, 0x80
			addi r1, r0, 18
			out  r1, 0x80
			halt
	`, nil, 1000)
	log := c.OutLog()
	if len(log) != 2 || log[0].Val != 17 || log[1].Val != 18 || log[0].Port != 0x80 {
		t.Errorf("out log %+v", log)
	}
}

func TestFaultOnCommittedBadLoad(t *testing.T) {
	p := asm.MustAssemble(`
		_start:
			li r1, 0x30000000
			ld r2, 0(r1)
			halt
	`)
	m := newTestMem(p)
	c, _ := New(DefaultConfig(), m, p.Entry)
	for i := 0; i < 1000 && !c.Halted(); i++ {
		c.Step()
		if k, _, addr := c.Faulted(); k != FaultNone {
			if k != FaultBadAddr || addr != 0x30000000 {
				t.Fatalf("fault %v addr %#x", k, addr)
			}
			if len(m.faultLog) != 1 || m.faultLog[0] != 0x30000000 {
				t.Fatalf("fault log %v — the disclosure channel of §3.3", m.faultLog)
			}
			return
		}
	}
	t.Fatal("bad load did not fault")
}

func TestMisalignedFault(t *testing.T) {
	p := asm.MustAssemble(`
		_start:
			la r1, buf
			ld r2, 1(r1)
			halt
		.data
		buf: .space 16
	`)
	m := newTestMem(p)
	c, _ := New(DefaultConfig(), m, p.Entry)
	for i := 0; i < 1000 && !c.Halted(); i++ {
		c.Step()
		if k, _, _ := c.Faulted(); k == FaultMisaligned {
			return
		}
	}
	t.Fatal("misaligned load did not fault")
}

func TestIllegalInstructionFault(t *testing.T) {
	p := asm.MustAssemble("_start: halt")
	p.Text[0] = 0xff // overwrite HALT with an invalid opcode
	m := newTestMem(p)
	for i, b := range p.TextBytes() {
		m.bytes[p.TextBase+uint64(i)] = b
	}
	c, _ := New(DefaultConfig(), m, p.Entry)
	for i := 0; i < 1000; i++ {
		c.Step()
		if k, _, _ := c.Faulted(); k == FaultIllegalInst {
			return
		}
	}
	t.Fatal("illegal instruction did not fault")
}

// The decisive microarchitectural behaviour for the paper: a load on the
// WRONG path really reaches the memory system (its address appears in the
// read stream) even though it never commits and the program is
// architecturally unaffected.
func TestWrongPathLoadReachesMemory(t *testing.T) {
	c, m := run(t, `
		_start:
			la   r2, probe
			addi r1, r0, 10
			addi r6, r0, 10
			div  r7, r1, r6       ; slow op: branch resolves late
			; bimodal starts weakly-not-taken, so this taken branch
			; mispredicts: the fall-through (wrong path) runs ahead.
			bne  r7, r0, skip
			ld   r3, 0(r2)        ; WRONG PATH load: must reach memory
			ld   r3, 128(r2)
		skip:
			addi r4, r0, 42
			halt
		.data
		probe: .space 512
	`, nil, 5000)
	if c.Reg(4) != 42 {
		t.Errorf("architectural result wrong: r4=%d", c.Reg(4))
	}
	if c.Reg(3) != 0 {
		t.Errorf("wrong-path load committed: r3=%d", c.Reg(3))
	}
	probeSeen := false
	for _, a := range m.reads {
		if a >= asm.DefaultDataBase && a < asm.DefaultDataBase+512 {
			probeSeen = true
		}
	}
	if !probeSeen {
		t.Fatal("wrong-path load never reached memory — side channel not modeled")
	}
	if c.Stats().Mispredicts == 0 || c.Stats().Squashed == 0 {
		t.Errorf("stats %+v: expected mispredict + squash", c.Stats())
	}
}

// A wrong-path load to an INVALID address must not fault the machine.
func TestWrongPathBadLoadIsSquashed(t *testing.T) {
	c, m := run(t, `
		_start:
			li   r2, 0x30000000
			addi r1, r0, 1
			bne  r1, r0, skip
			ld   r3, 0(r2)        ; wrong path, invalid address
		skip:
			halt
	`, nil, 5000)
	if len(m.faultLog) != 0 {
		t.Fatalf("squashed bad load logged a fault: %v", m.faultLog)
	}
	_ = c
}

func TestGateCommitDelaysRetirement(t *testing.T) {
	src := `
		_start:
			la r2, buf
			ld r1, 0(r2)
			add r3, r1, r1
			halt
		.data
		buf: .word 21
	`
	fast, _ := run(t, src, func(cfg *Config, m *testMem) {
		m.authDelay = 0
	}, 10000)
	slow, _ := run(t, src, func(cfg *Config, m *testMem) {
		cfg.GateCommit = true
		m.authDelay = 500
	}, 10000)
	if slow.Reg(3) != 42 || fast.Reg(3) != 42 {
		t.Fatal("wrong results")
	}
	if slow.Stats().Cycles <= fast.Stats().Cycles+400 {
		t.Errorf("authen-then-commit did not pay auth latency: %d vs %d",
			slow.Stats().Cycles, fast.Stats().Cycles)
	}
	if slow.Stats().CommitAuthStall == 0 {
		t.Error("no commit auth stalls recorded")
	}
}

func TestGateIssueDelaysMore(t *testing.T) {
	src := `
		_start:
			addi r1, r0, 1
			addi r2, r0, 2
			add  r3, r1, r2
			halt
	`
	commit, _ := run(t, src, func(cfg *Config, m *testMem) {
		cfg.GateCommit = true
		m.authDelay = 300
	}, 20000)
	issue, _ := run(t, src, func(cfg *Config, m *testMem) {
		cfg.GateIssue = true
		m.authDelay = 300
	}, 20000)
	if issue.Stats().Cycles <= commit.Stats().Cycles {
		t.Errorf("then-issue (%d cycles) should be slower than then-commit (%d)",
			issue.Stats().Cycles, commit.Stats().Cycles)
	}
	if issue.Stats().IssueAuthStall == 0 {
		t.Error("no issue auth stalls recorded")
	}
}

func TestStoreCarriesAuthTag(t *testing.T) {
	_, m := run(t, `
		_start:
			la  r2, buf
			ld  r1, 0(r2)
			sd  r1, 8(r2)
			halt
		.data
		buf: .word 5, 0
	`, func(cfg *Config, m *testMem) {
		cfg.StoreWaitAuth = true
		m.authDelay = 100
	}, 10000)
	if len(m.stores) != 1 {
		t.Fatalf("stores %d", len(m.stores))
	}
	if m.stores[0].authTag == 0 {
		t.Error("store committed without a LastRequest tag")
	}
}

func TestInfiniteLoopDoesNotHalt(t *testing.T) {
	p := asm.MustAssemble("_start: b _start")
	m := newTestMem(p)
	c, _ := New(DefaultConfig(), m, p.Entry)
	for i := 0; i < 2000; i++ {
		c.Step()
	}
	if c.Halted() {
		t.Fatal("infinite loop halted")
	}
	if c.Stats().Committed == 0 {
		t.Fatal("no instructions committed in loop")
	}
}

func TestIPCSaneOnIndependentOps(t *testing.T) {
	// 64 independent ALU ops: an 8-wide core should sustain IPC > 2.
	src := "_start:\n"
	for i := 0; i < 64; i++ {
		src += "addi r1, r0, 1\n"
	}
	src += "halt\n"
	c, _ := run(t, src, nil, 1000)
	ipc := float64(c.Stats().Committed) / float64(c.Stats().Cycles)
	if ipc < 2 {
		t.Errorf("IPC %.2f too low for independent ops", ipc)
	}
}

func TestConfigValidation(t *testing.T) {
	m := newTestMem(asm.MustAssemble("_start: halt"))
	bad := []func(*Config){
		func(c *Config) { c.RUUSize = 0 },
		func(c *Config) { c.LSQSize = 0 },
		func(c *Config) { c.IFQSize = 0 },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.CommitWidth = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg, m, 0); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSmallRUUStillCorrect(t *testing.T) {
	c, _ := run(t, `
		_start:
			addi r1, r0, 0
			addi r2, r0, 100
		loop:
			add  r1, r1, r2
			addi r2, r2, -1
			bne  r2, r0, loop
			halt
	`, func(cfg *Config, m *testMem) {
		cfg.RUUSize = 8
		cfg.LSQSize = 4
	}, 50000)
	if c.Reg(1) != 5050 {
		t.Errorf("sum %d want 5050", c.Reg(1))
	}
}

func TestJALRIndirectTarget(t *testing.T) {
	c, _ := run(t, `
		_start:
			la   r1, target
			jalr r2, r1, 0
			halt              ; skipped
		dead:
			addi r3, r0, 1
			halt
		target:
			addi r3, r0, 7
			halt
	`, nil, 5000)
	if c.Reg(3) != 7 {
		t.Errorf("r3 = %d want 7 (indirect jump)", c.Reg(3))
	}
	if c.Reg(2) == 0 {
		t.Error("jalr link register not written")
	}
}

// Regression: a load must not forward from an older matching store when an
// even-younger older store's address is still unresolved — that store may
// overwrite the match. (Found by the differential oracle tests.)
func TestNoForwardPastUnresolvedStore(t *testing.T) {
	c, _ := run(t, `
		_start:
			la   r2, buf
			addi r1, r0, 111
			sd   r1, 0(r2)      ; store A @X, resolves immediately
			ld   r3, 64(r2)     ; slow load (memory latency)
			and  r4, r3, r0     ; r4 = 0, but dependent on the slow load
			add  r4, r4, r2     ; store B's address resolves late...
			addi r5, r0, 222
			sd   r5, 0(r4)      ; ...and lands on X too
			ld   r6, 0(r2)      ; must see 222, never 111
			halt
		.data
		buf: .space 128
	`, func(cfg *Config, m *testMem) {
		m.dataLat = 60 // make the disambiguating load slow
	}, 10000)
	if got := c.Reg(6); got != 222 {
		t.Fatalf("load forwarded past an unresolved store: r6 = %d want 222", got)
	}
}
