package sim

import (
	"testing"

	"authpoint/internal/asm"
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
