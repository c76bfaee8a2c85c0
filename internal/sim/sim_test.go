package sim

import (
	"fmt"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
)

func mustMachine(t *testing.T, cfg Config, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustRun(t *testing.T, m *Machine) Result {
	t.Helper()
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v (reason %v)", err, res.Reason)
	}
	return res
}

func TestFullSystemFactorial(t *testing.T) {
	src := `
		_start:
			addi r1, r0, 7
			addi r2, r0, 1
		loop:
			mul  r2, r2, r1
			addi r1, r1, -1
			bne  r1, r0, loop
			la   r3, result
			sd   r2, 0(r3)
			halt
		.data
		result: .word 0
	`
	for _, pt := range paperPoints {
		cfg := DefaultConfig()
		cfg.Policy = pt
		m := mustMachine(t, cfg, src)
		res := mustRun(t, m)
		if res.Reason != StopHalt {
			t.Fatalf("%v: stopped with %v", pt, res.Reason)
		}
		// Wait for the store buffer then check architectural memory.
		got := m.Shadow.ReadUint(m.Prog.Symbols["result"], 8)
		if got != 5040 {
			t.Errorf("%v: 7! = %d want 5040", pt, got)
		}
		// The value must also round-trip through the protected (encrypted)
		// external memory if the line was written back... (it may still sit
		// dirty in cache; shadow is the architectural truth).
		if res.IPC <= 0 {
			t.Errorf("%v: IPC %v", pt, res.IPC)
		}
	}
}

func TestMaxInstsStops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 1000
	m := mustMachine(t, cfg, "_start: b _start")
	res := mustRun(t, m)
	if res.Reason != StopMaxInsts {
		t.Fatalf("reason %v", res.Reason)
	}
	if res.Insts < 1000 {
		t.Fatalf("insts %d", res.Insts)
	}
}

// memWorkload generates a streaming+reduction loop over a working set well
// beyond the 256KB L2, guaranteeing memory traffic.
func memWorkload(iters int) string {
	return fmt.Sprintf(`
		_start:
			addi r5, r0, %d      ; outer iterations
		outer:
			la   r2, arr
			li   r3, 8192        ; elements per pass (8192*64B stride = 512KB)
			addi r4, r0, 0
		inner:
			ld   r1, 0(r2)
			add  r4, r4, r1
			addi r2, r2, 64      ; stride one L2 line
			addi r3, r3, -1
			bne  r3, r0, inner
			addi r5, r5, -1
			bne  r5, r0, outer
			la   r6, out
			sd   r4, 0(r6)
			halt
		.data
		out: .word 0
		arr: .space 524288
	`, iters)
}

func TestSchemePerformanceRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cycles := map[policy.ControlPoint]uint64{}
	for _, pt := range paperPoints {
		cfg := DefaultConfig()
		cfg.Policy = pt
		m := mustMachine(t, cfg, memWorkload(1))
		res := mustRun(t, m)
		if res.Reason != StopHalt {
			t.Fatalf("%v: %v", pt, res.Reason)
		}
		cycles[pt] = res.Cycles
	}
	t.Logf("cycles: %v", cycles)
	base := cycles[policy.Baseline]
	// The paper's ordering (Figure 7): baseline fastest; then-write close
	// behind; then-commit next; then-fetch and commit+fetch slower;
	// then-issue and obfuscation+commit slowest.
	if !(base <= cycles[policy.ThenWrite]) {
		t.Errorf("baseline (%d) should beat then-write (%d)", base, cycles[policy.ThenWrite])
	}
	if !(cycles[policy.ThenWrite] <= cycles[policy.ThenCommit]) {
		t.Errorf("then-write (%d) should beat then-commit (%d)", cycles[policy.ThenWrite], cycles[policy.ThenCommit])
	}
	if !(cycles[policy.ThenCommit] <= cycles[policy.CommitPlusFetch]) {
		t.Errorf("then-commit (%d) should beat commit+fetch (%d)", cycles[policy.ThenCommit], cycles[policy.CommitPlusFetch])
	}
	if !(cycles[policy.ThenCommit] <= cycles[policy.ThenIssue]) {
		t.Errorf("then-commit (%d) should beat then-issue (%d)", cycles[policy.ThenCommit], cycles[policy.ThenIssue])
	}
	if !(base < cycles[policy.ThenIssue]) {
		t.Errorf("then-issue (%d) must cost more than baseline (%d)", cycles[policy.ThenIssue], base)
	}
}

// tamperPointer rewrites the encrypted pointer at label `secretp` so it
// decrypts to target — the pointer-conversion primitive (§3.2.1), exploiting
// counter-mode malleability with two known/guessed plaintext bytes.
func tamperPointer(m *Machine, label string, oldVal, newVal uint64) {
	addr := m.Prog.Symbols[label]
	mask := make([]byte, 8)
	for i := 0; i < 8; i++ {
		mask[i] = byte(oldVal>>(8*i)) ^ byte(newVal>>(8*i))
	}
	m.Memory.XorRange(addr, mask)
}

const probeBase = 0x20000000

// sideChannelVictim loads a pointer and dereferences it. The adversary
// tampers the pointer to aim at the probe window; whether the dereference's
// address ever reaches the bus is exactly what separates the schemes
// (Table 2).
const sideChannelVictim = `
	_start:
		la  r2, secretp
		ld  r1, 0(r2)       ; load (tampered) pointer
		ld  r3, 0(r1)       ; dereference: the disclosing fetch
		add r4, r3, r3
		halt
	.data
	secretp: .word 0x1000   ; innocent pointer to text
`

func runSideChannel(t *testing.T, pt policy.ControlPoint) (Result, []uint64) {
	t.Helper()
	p, err := asm.Assemble(sideChannelVictim)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Policy = pt
	cfg.TraceBus = true
	m, err := NewMachineWithRegions(cfg, p, []Region{{probeBase, 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	// Adversary: convert the pointer into probeBase+0x4440 (as if the
	// secret were that value).
	tamperPointer(m, "secretp", 0x1000, probeBase+0x4440)
	res, _ := m.Run()
	leaked := []uint64{}
	for _, a := range m.ReadLineAddrsBefore(StopCycle(res)) {
		if a >= probeBase && a < probeBase+(1<<20) {
			leaked = append(leaked, a)
		}
	}
	return res, leaked
}

func TestSideChannelMatrix(t *testing.T) {
	// Table 2, "prevent active fetch address side-channel disclose":
	// then-issue and commit+fetch prevent; then-write and then-commit do not.
	cases := []struct {
		pt        policy.ControlPoint
		wantLeak  bool
		wantFault bool
	}{
		{policy.Baseline, true, false}, // no verification at all
		{policy.ThenWrite, true, true},
		{policy.ThenCommit, true, true},
		{policy.ThenIssue, false, true},
		{policy.CommitPlusFetch, false, true},
	}
	for _, c := range cases {
		res, leaked := runSideChannel(t, c.pt)
		if got := len(leaked) > 0; got != c.wantLeak {
			t.Errorf("%v: leak=%v want %v (leaked addrs %x, reason %v)",
				c.pt, got, c.wantLeak, leaked, res.Reason)
		}
		if got := res.Reason == StopSecurityFault; got != c.wantFault {
			t.Errorf("%v: fault=%v want %v (reason %v)", c.pt, got, c.wantFault, res.Reason)
		}
		if len(leaked) > 0 {
			// The leak carries the secret: the line address of the probe.
			wantLine := uint64(probeBase+0x4440) &^ 63
			found := false
			for _, a := range leaked {
				if a == wantLine {
					found = true
				}
			}
			if !found && c.pt != policy.Baseline {
				t.Errorf("%v: leak did not contain secret-derived line %#x: %x", c.pt, wantLine, leaked)
			}
		}
	}
}

func TestObfuscationHidesAddresses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = policy.CommitPlusObfuscation
	cfg.TraceBus = true
	m := mustMachine(t, cfg, memWorkload(1))
	res := mustRun(t, m)
	if res.Reason != StopHalt {
		t.Fatalf("reason %v", res.Reason)
	}
	for _, a := range m.ReadLineAddrsBefore(res.Cycles) {
		if a < 0x40000000 {
			t.Fatalf("raw address %#x visible under obfuscation", a)
		}
	}
	if res.Sec.RemapMisses == 0 {
		t.Error("remap cache never missed on a 512KB working set")
	}
}

func TestTamperedCodeFaultsBeforeHalt(t *testing.T) {
	src := `
		_start:
			addi r1, r0, 1
			addi r1, r1, 1
			halt
		.data
		x: .word 0
	`
	cfg := DefaultConfig()
	cfg.Policy = policy.ThenCommit
	m := mustMachine(t, cfg, src)
	// Flip a bit in the encrypted text.
	m.Memory.XorRange(m.Prog.TextBase, []byte{0x40})
	res, _ := m.Run()
	if res.Reason != StopSecurityFault {
		t.Fatalf("tampered code: reason %v", res.Reason)
	}
	if res.SecurityFault == nil || res.SecurityFault.Addr != m.Prog.TextBase&^63 {
		t.Fatalf("fault %+v", res.SecurityFault)
	}
}

func TestBaselineExecutesTamperedCode(t *testing.T) {
	// Under the baseline the same tamper goes entirely undetected: whatever
	// the flipped instruction decodes to simply executes.
	src := `
		_start:
			addi r1, r0, 1
			halt
	`
	cfg := DefaultConfig()
	cfg.Policy = policy.Baseline
	m := mustMachine(t, cfg, src)
	// Flip the immediate of the ADDI from 1 to 3 (bit 17 of the word =
	// byte 2 bit 1 of imm16).
	m.Memory.XorRange(m.Prog.TextBase+2, []byte{0x02})
	res, _ := m.Run()
	if res.Reason != StopHalt {
		t.Fatalf("reason %v", res.Reason)
	}
	if got := m.Core.Reg(1); got != 3 {
		t.Fatalf("tampered immediate: r1 = %d want 3", got)
	}
}

func TestWatchdogFires(t *testing.T) {
	// A program that jumps into unmapped space never commits again.
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 5_000
	m := mustMachine(t, cfg, `
		_start:
			li   r1, 0x30000000
			jalr r0, r1, 0
	`)
	res, err := m.Run()
	if err == nil || res.Reason != StopWatchdog {
		t.Fatalf("reason %v err %v", res.Reason, err)
	}
}

func TestTreeSchemeRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = policy.ThenCommit
	cfg.Sec.UseTree = true
	m := mustMachine(t, cfg, memWorkload(1))
	res := mustRun(t, m)
	if res.Reason != StopHalt {
		t.Fatalf("reason %v", res.Reason)
	}
	flat := DefaultConfig()
	flat.Policy = policy.ThenCommit
	m2 := mustMachine(t, flat, memWorkload(1))
	res2 := mustRun(t, m2)
	if res.Cycles <= res2.Cycles {
		t.Errorf("tree (%d cycles) should cost more than flat MAC (%d)", res.Cycles, res2.Cycles)
	}
}

func TestSmallerRUUSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	big := DefaultConfig()
	big.Policy = policy.ThenCommit
	mBig := mustMachine(t, big, memWorkload(1))
	resBig := mustRun(t, mBig)

	small := DefaultConfig()
	small.Policy = policy.ThenCommit
	small.Pipeline.RUUSize = 64
	small.Pipeline.LSQSize = 32
	mSmall := mustMachine(t, small, memWorkload(1))
	resSmall := mustRun(t, mSmall)
	if resSmall.Cycles < resBig.Cycles {
		t.Errorf("64-entry RUU (%d) should not beat 128-entry (%d)", resSmall.Cycles, resBig.Cycles)
	}
}

func TestLargerL2Faster(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	small := DefaultConfig()
	small.Policy = policy.ThenIssue
	mS := mustMachine(t, small, memWorkload(2))
	resS := mustRun(t, mS)

	big := DefaultConfig()
	big.Policy = policy.ThenIssue
	big.Mem.L2B = 1 << 20
	big.Mem.L2Lat = 8
	mB := mustMachine(t, big, memWorkload(2))
	resB := mustRun(t, mB)
	// 512KB working set fits in 1MB L2: second pass hits.
	if resB.Cycles >= resS.Cycles {
		t.Errorf("1MB L2 (%d cycles) should beat 256KB (%d)", resB.Cycles, resS.Cycles)
	}
}

func TestBadConfigsRejected(t *testing.T) {
	p, _ := asm.Assemble("_start: halt")
	bad := []func(*Config){
		func(c *Config) { c.Pipeline.RUUSize = 0 },
		func(c *Config) { c.Mem.L1IB = 100 }, // not divisible by line*ways
		func(c *Config) { c.Mem.L2LineB = 48 },
		func(c *Config) { c.Mem.StoreBufSize = 0 },
		func(c *Config) { c.Mem.MSHRs = -1 }, // would run as unbounded
		func(c *Config) { c.Sec.MacB = 0 },
		func(c *Config) { c.Bus.CorePerBus = 0 },
		func(c *Config) { c.DRAM.Banks = 0 },
		func(c *Config) { c.Mem.ITLBEntries = 10; c.Mem.TLBWays = 4 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := NewMachine(cfg, p); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
