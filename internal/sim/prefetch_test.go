package sim

import (
	"slices"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/bus"
	"authpoint/internal/policy"
)

// Prefetching a sequential stream should cut demand-miss latency; the
// prefetches must be real external fetches with auth requests.
func TestNextLinePrefetch(t *testing.T) {
	// The stream is artificially serialized (the next address depends on the
	// current load) so it is latency-bound: exactly where a next-line
	// prefetcher pays off.
	src := `
	_start:
		la   r1, arr
		li   r2, 4096
	loop:
		ld   r3, 0(r1)
		add  r4, r4, r3
		and  r5, r3, r0      ; r5 = 0, but dependent on the load
		add  r1, r1, r5      ; serialize the address chain
		addi r1, r1, 64
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	.data
	arr: .space 262144
	`
	run := func(pf bool) (Result, uint64) {
		p := asm.MustAssemble(src)
		cfg := DefaultConfig()
		cfg.Policy = policy.Baseline
		cfg.Mem.NextLinePrefetch = pf
		m, err := NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != StopHalt {
			t.Fatalf("reason %v", res.Reason)
		}
		if pf && m.MS.Prefetches == 0 {
			t.Fatal("prefetcher never fired")
		}
		_, _, l2 := m.MS.Caches()
		return res, l2.Stats().Misses
	}
	off, offMisses := run(false)
	on, onMisses := run(true)
	if on.Cycles >= off.Cycles {
		t.Errorf("prefetch did not help a serialized stream: %d vs %d cycles", on.Cycles, off.Cycles)
	}
	if onMisses >= offMisses {
		t.Errorf("prefetch did not reduce demand misses: %d vs %d", onMisses, offMisses)
	}
}

// A prefetch takes a miss register like a demand miss, and holds it until
// its data arrives; with every register busy it is dropped. Two demand
// misses at cycles 100 and 101 on lines whose next lines are missing too:
// with one register, neither prefetch runs and the second miss reaches the
// bus only once the first fill is in; with two, the first miss's prefetch
// takes the free register and the second's finds both busy.
func TestPrefetchTakesMissRegister(t *testing.T) {
	p := asm.MustAssemble(`
	_start:
		halt
	.data
	buf: .space 65536
	`)
	a, b := p.DataBase, p.DataBase+16384
	for _, tc := range []struct {
		mshrs      int
		prefetches uint64
		reads      []uint64
	}{
		{1, 0, []uint64{a, b}},
		{2, 1, []uint64{a, a + 64, b}},
	} {
		cfg := DefaultConfig()
		cfg.Policy = policy.Baseline
		cfg.TraceBus = true
		cfg.Mem.MSHRs = tc.mshrs
		cfg.Mem.NextLinePrefetch = true
		m, err := NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		m.MS.ReadData(100, a, 8, 0)
		firstFill := m.MS.inflight[0] // the cycle the first miss's data arrives
		m.MS.ReadData(101, b, 8, 0)
		if got := m.MS.Prefetches; got != tc.prefetches {
			t.Errorf("MSHRs=%d: %d prefetches counted, want %d", tc.mshrs, got, tc.prefetches)
		}
		var reads []uint64
		for _, e := range m.Bus.Trace() {
			if e.Kind != bus.ReadLine {
				continue
			}
			reads = append(reads, e.Addr)
			if tc.mshrs == 1 && e.Addr != a && e.Cycle < firstFill {
				t.Errorf("MSHRs=1: line %#x on the bus at cycle %d, while the fill of %#x is outstanding until %d",
					e.Addr, e.Cycle, a, firstFill)
			}
		}
		if !slices.Equal(reads, tc.reads) {
			t.Errorf("MSHRs=%d: line reads %#x, want %#x", tc.mshrs, reads, tc.reads)
		}
	}
}
