package sim

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
)

// The drain variant of authen-then-fetch is strictly more conservative than
// the LastRequest-register variant on dependent fetch chains.
func TestFetchDrainVariantSlower(t *testing.T) {
	src := `
	_start:
		la   r1, head
		li   r2, 200
	chase:
		ld   r1, 0(r1)
		addi r2, r2, -1
		bne  r2, r0, chase
		halt
	.data
	head: .word n1
	.space 8184
	n1:   .word n2
	.space 8184
	n2:   .word head
	`
	run := func(drain bool) uint64 {
		p := asm.MustAssemble(src)
		cfg := DefaultConfig()
		cfg.Policy = policy.ThenFetch
		cfg.Mem.FetchDrain = drain
		m, err := NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil || res.Reason != StopHalt {
			t.Fatalf("drain=%v: %v %v", drain, res.Reason, err)
		}
		return res.Cycles
	}
	tag := run(false)
	drain := run(true)
	if drain < tag {
		t.Errorf("drain variant (%d cycles) beat LastRequest variant (%d)", drain, tag)
	}
}

// Under authen-then-write, a committed store must not reach the cache (and
// hence external memory) before its authentication tag clears.
func TestThenWriteHoldsStores(t *testing.T) {
	src := `
	_start:
		la   r1, src
		ld   r2, 0(r1)      ; miss: enqueues a verification request
		la   r3, dst
		sd   r2, 0(r3)      ; store tagged with that request
		halt
	.data
	src: .word 1234
	.space 8184
	dst: .word 0
	`
	p := asm.MustAssemble(src)
	cfg := DefaultConfig()
	cfg.Policy = policy.ThenWrite
	m, err := NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil || res.Reason != StopHalt {
		t.Fatalf("%v %v", res.Reason, err)
	}
	// The machine halts as soon as HALT commits; the store buffer may still
	// hold the store (its auth tag clears later). Drain manually.
	for i := 0; i < 10_000 && !m.MS.StoreBufferEmpty(); i++ {
		m.MS.Tick(res.Cycles + uint64(i))
	}
	if !m.MS.StoreBufferEmpty() {
		t.Fatal("store buffer never drained after verification completed")
	}
	if got := m.Shadow.ReadUint(m.Prog.Symbols["dst"], 8); got != 1234 {
		t.Fatalf("dst = %d", got)
	}
}

// The next-line prefetcher must never prefetch outside protected ranges and
// must be invisible to architectural results.
func TestPrefetchAtRegionEdge(t *testing.T) {
	src := `
	_start:
		la  r1, last
		ld  r2, 0(r1)       ; miss on the final line of the data region
		halt
	.data
	.space 8128
	last: .word 42
	`
	p := asm.MustAssemble(src)
	cfg := DefaultConfig()
	cfg.Policy = policy.ThenCommit
	cfg.Mem.NextLinePrefetch = true
	m, err := NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil || res.Reason != StopHalt {
		t.Fatalf("%v %v", res.Reason, err)
	}
	if m.Core.Reg(2) != 42 {
		t.Fatalf("r2 = %d", m.Core.Reg(2))
	}
}

// A bounded MSHR file throttles memory-level parallelism: an independent
// miss stream slows down as the bound shrinks, and results stay correct.
func TestMSHRBoundThrottles(t *testing.T) {
	run := func(mshrs int) uint64 {
		p := asm.MustAssemble(`
		_start:
			la   r1, arr
			li   r2, 2048
		loop:
			ld   r3, 0(r1)
			add  r4, r4, r3
			addi r1, r1, 64
			addi r2, r2, -1
			bne  r2, r0, loop
			halt
		.data
		arr: .space 131072
		`)
		cfg := DefaultConfig()
		cfg.Policy = policy.Baseline
		cfg.Mem.MSHRs = mshrs
		m, err := NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil || res.Reason != StopHalt {
			t.Fatalf("mshrs=%d: %v %v", mshrs, res.Reason, err)
		}
		return res.Cycles
	}
	unbounded := run(0)
	one := run(1)
	if one <= unbounded {
		t.Errorf("1 MSHR (%d cycles) should be slower than unbounded (%d)", one, unbounded)
	}
}

// An L1 hit reports the verification cycle of its L2 line as the L2 holds
// it now: 0 once the L2 has evicted the line, though an L1D half of it
// survives, and the re-fetch's cycle once a miss on the other half has
// fetched the line again. The four lines D+32+k*64KB fill line D's L2 set
// and share the L1D set of D's second half only.
func TestL1HitReportsL2LineAuth(t *testing.T) {
	const d = 0x100fc0
	p := asm.MustAssemble(`
	_start:
		halt
	.data
	.space 0x41000
	`)
	cfg := DefaultConfig()
	cfg.Policy = policy.ThenCommit
	m, err := NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	_, l1d, _ := m.MS.Caches()
	now := uint64(1)
	load := func(addr uint64, wantHit bool) uint64 {
		t.Helper()
		hits := l1d.Stats().Hits
		r := m.MS.ReadData(now, addr, 8, 0)
		if hit := l1d.Stats().Hits > hits; hit != wantHit {
			t.Fatalf("load of %#x: L1D hit %v, want %v", addr, hit, wantHit)
		}
		now = max(now, r.Ready) + 1
		return r.AuthDone
	}
	first := load(d, false)
	if first == 0 {
		t.Fatal("the fetch of D reports no verification cycle")
	}
	if got := load(d+8, true); got != first {
		t.Errorf("L1 hit on D reports AuthDone %d, want the fetch's %d", got, first)
	}
	for k := uint64(1); k <= 4; k++ {
		load(d+32+k<<16, false)
	}
	if got := load(d+8, true); got != 0 {
		t.Errorf("L1 hit on D after the L2 evicted it reports AuthDone %d, want 0", got)
	}
	refetch := load(d+32, false)
	if refetch <= first {
		t.Fatalf("the re-fetch of D reports AuthDone %d, want a cycle after the first fetch's %d", refetch, first)
	}
	if got := load(d+8, true); got != refetch {
		t.Errorf("L1 hit on D after its re-fetch reports AuthDone %d, want the re-fetch's %d", got, refetch)
	}
}
