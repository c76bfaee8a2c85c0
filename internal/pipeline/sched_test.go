package pipeline

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/obs"
)

// TestSchedulerPrograms drives the issue scheduler through the cases that
// move entries between its ready and park masks. run checks the scheduler
// invariant after every Step (checkScheduler); each case also pins its
// architectural result and that a load really was parked where one must be.
func TestSchedulerPrograms(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		mutate func(*Config, *testMem)
		park   bool
		check  func(t *testing.T, c *Core)
	}{
		{
			name: "load behind an unresolved store address",
			src: `
				_start:
					la   r2, buf
					ld   r3, 64(r2)     ; slow load
					and  r4, r3, r0
					add  r4, r4, r2     ; the store's address waits on it
					addi r5, r0, 222
					sd   r5, 0(r4)
					ld   r6, 0(r2)      ; parked, then forwards 222
					ld   r7, 8(r2)      ; parked, then reads memory
					halt
				.data
				buf: .word 111, 333
				     .space 112
			`,
			mutate: func(cfg *Config, m *testMem) { m.dataLat = 60 },
			park:   true,
			check: func(t *testing.T, c *Core) {
				if c.Reg(6) != 222 || c.Reg(7) != 333 {
					t.Errorf("r6 = %d, r7 = %d; want 222, 333", c.Reg(6), c.Reg(7))
				}
			},
		},
		{
			name: "partial overlap",
			src: `
				_start:
					la   r2, buf
					addi r1, r0, -1
					sw   r1, 4(r2)
					ld   r3, 0(r2)      ; overlaps the store's bytes: waits for its commit
					halt
				.data
				buf: .word 0x11223344
			`,
			park: true,
			check: func(t *testing.T, c *Core) {
				if c.Reg(3) != 0xffffffff11223344 {
					t.Errorf("r3 = %#x, want 0xffffffff11223344", c.Reg(3))
				}
			},
		},
		{
			name: "late store data",
			src: `
				_start:
					la   r2, buf
					addi r1, r0, 84
					addi r3, r0, 2
					div  r5, r1, r3     ; the store's data arrives late
					sd   r5, 0(r2)      ; address known at once
					ld   r6, 0(r2)      ; parked until the data arrives, then forwards
					halt
				.data
				buf: .space 16
			`,
			park: true,
			check: func(t *testing.T, c *Core) {
				if c.Reg(6) != 42 {
					t.Errorf("r6 = %d, want 42", c.Reg(6))
				}
				if c.Stats().Forwards == 0 {
					t.Error("the load did not forward from the store")
				}
			},
		},
		{
			name: "mispredict squashes a parked load",
			src: `
				_start:
					la   r2, buf
					ld   r3, 64(r2)     ; slow load
					addi r1, r0, 10
					addi r6, r0, 10
					div  r7, r1, r6     ; the branch resolves long before the slow load
					bne  r7, r0, skip   ; mispredicted not-taken
					add  r4, r3, r2     ; wrong path: the store's address waits
					sd   r1, 0(r4)
					ld   r5, 8(r2)      ; wrong path: parked, then squashed
				skip:
					addi r8, r0, 42
					halt
				.data
				buf: .word 0, 7
				     .space 112
			`,
			mutate: func(cfg *Config, m *testMem) { m.dataLat = 60 },
			park:   true,
			check: func(t *testing.T, c *Core) {
				if c.Reg(5) != 0 || c.Reg(8) != 42 {
					t.Errorf("r5 = %d, r8 = %d; want 0, 42", c.Reg(5), c.Reg(8))
				}
				if c.Stats().Squashed == 0 {
					t.Error("nothing squashed")
				}
			},
		},
		{
			name: "GateIssue holds ready entries",
			src: `
				_start:
					la   r2, buf
					addi r1, r0, 5
					sd   r1, 0(r2)
					ld   r3, 0(r2)
					add  r4, r3, r1
					sd   r4, 8(r2)
					ld   r5, 8(r2)
					halt
				.data
				buf: .space 16
			`,
			mutate: func(cfg *Config, m *testMem) {
				cfg.GateIssue = true
				m.authDelay = 300
			},
			check: func(t *testing.T, c *Core) {
				if c.Reg(5) != 10 {
					t.Errorf("r5 = %d, want 10", c.Reg(5))
				}
				if c.Stats().IssueAuthStall == 0 {
					t.Error("no entry held at the issue gate")
				}
			},
		},
		{
			name: "RUU small enough to wrap",
			src:  wrapLoopSrc,
			mutate: func(cfg *Config, m *testMem) {
				cfg.RUUSize = 8
				cfg.LSQSize = 4
			},
			park:  true,
			check: checkWrapLoop,
		},
		{
			name:   "RUU wrapping inside its second mask word",
			src:    wrapLoopSrc,
			mutate: func(cfg *Config, m *testMem) { cfg.RUUSize = 72 },
			park:   true,
			check:  checkWrapLoop,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, m := run(t, tc.src, tc.mutate, 20000)
			tc.check(t, c)
			if tc.park && m.parked == 0 {
				t.Error("no load was ever parked")
			}
		})
	}
}

// wrapLoopSrc stores, reloads and partially overlaps in a loop long enough
// to wrap any small RUU many times.
const wrapLoopSrc = `
	_start:
		la   r2, buf
		addi r1, r0, 0      ; sum
		addi r3, r0, 20     ; i
	loop:
		sd   r3, 0(r2)
		ld   r4, 0(r2)      ; forwards i
		add  r1, r1, r4
		sw   r4, 12(r2)
		ld   r5, 8(r2)      ; overlaps the sw: i << 32
		add  r1, r1, r5
		addi r3, r3, -1
		bne  r3, r0, loop
		halt
	.data
	buf: .space 16
`

func checkWrapLoop(t *testing.T, c *Core) {
	if want := uint64(210 + 210<<32); c.Reg(1) != want {
		t.Errorf("sum = %#x, want %#x", c.Reg(1), want)
	}
}

// TestUnparkedLoadIssuesInSameScan pins that a load unparked by an older
// store's address computation is visited by the same issue scan, as the
// full-window scan visited it: the store's base arrives late, the store
// computes its address and issues, and the load behind it, which the store
// does not overlap, issues in that same cycle.
func TestUnparkedLoadIssuesInSameScan(t *testing.T) {
	src := `
		_start:
			la   r2, buf
			addi r1, r0, 9
			ld   r3, 64(r2)     ; slow load
			and  r4, r3, r0
			add  r4, r4, r2     ; the store's base waits on it
		st:	sd   r1, 8(r4)
		lo:	ld   r6, 0(r2)      ; parked until the store's address is known
			halt
		.data
		buf: .word 5, 0
		     .space 112
	`
	c, m, sink := runObserved(t, src, func(cfg *Config, m *testMem) { m.dataLat = 60 }, 20000)
	if c.Reg(6) != 5 {
		t.Errorf("r6 = %d, want 5", c.Reg(6))
	}
	if m.parked == 0 {
		t.Fatal("the load was never parked")
	}
	p := asm.MustAssemble(src)
	issued := sink.cycles(obs.EvIssue)
	st, lo := issued[p.Symbols["st"]], issued[p.Symbols["lo"]]
	if st == 0 || lo != st {
		t.Errorf("store issued at cycle %d, the load it unblocked at %d; want the same cycle", st, lo)
	}
}

// TestParkedLoadWaitsOnItsBlocker pins that a parked load waits on the one
// store that blocks it. The store b, whose base waits on a slow load, blocks
// the load lo from its first attempt until the slow load returns.
// Meanwhile the unrelated store u1, older than b, receives its data and
// commits, and u2, between b and lo, receives its data and computes its
// address; none of those four changes may make lo decide again. So the run
// makes three disambiguation decisions: one for the slow load (u1 is in the
// window), and two for lo, its park and its issue; releasing every parked
// load on any store's change would make lo decide again in the two cycles
// those changes fall in. Only lo's park scans the stores: the store filter
// clears the slow load (u1, the one older store, is resolved and in another
// word) and lo's issue (b and u2 resolved, neither in lo's word) without a
// scan. lo issues in cycle 68, when b computes its address and issues.
func TestParkedLoadWaitsOnItsBlocker(t *testing.T) {
	src := `
		_start:
			la   r2, buf
			addi r1, r0, 84
			addi r3, r0, 2
			div  r5, r1, r3     ; u1's data, 12 cycles
		u1:	sd   r5, 16(r2)
			ld   r9, 128(r2)    ; slow load
			and  r10, r9, r0
			add  r10, r10, r2   ; b's base waits on it
		b:	sd   r1, 0(r10)
			div  r6, r1, r3     ; u2's data, then its base
			and  r7, r6, r0
			add  r7, r7, r2
		u2:	sd   r6, 32(r7)
		lo:	ld   r11, 8(r2)     ; parked on b
			halt
		.data
		buf: .word 0, 333
		     .space 240
	`
	p := asm.MustAssemble(src)
	m := newTestMem(p)
	m.dataLat = 60
	c, err := New(DefaultConfig(), m, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	var perf obs.Perf
	sink := &recSink{}
	c.SetPerf(&perf)
	c.SetObserver(sink)
	for i := 0; i < 1000 && !c.Halted(); i++ {
		c.Step()
		m.parked += checkScheduler(t, c)
	}
	if !c.Halted() || c.Reg(11) != 333 {
		t.Fatalf("halted %v, r11 = %d; want a halt and 333", c.Halted(), c.Reg(11))
	}
	issued, committed := sink.cycles(obs.EvIssue), sink.cycles(obs.EvCommit)
	at := func(sym string, cycles map[uint64]uint64) uint64 { return cycles[p.Symbols[sym]] }
	lo := at("lo", issued)
	// The four unrelated changes all fall while lo is parked.
	for _, ch := range []struct {
		what  string
		cycle uint64
	}{{"u1's data arrival", at("u1", issued)}, {"u1's commit", at("u1", committed)}, {"u2's address and data", at("u2", issued)}} {
		if ch.cycle == 0 || ch.cycle >= lo {
			t.Errorf("%s at cycle %d, not before lo issues at %d", ch.what, ch.cycle, lo)
		}
	}
	if b := at("b", issued); lo != 68 || b != lo {
		t.Errorf("lo issued at cycle %d and b at %d, want both at 68", lo, b)
	}
	if d := perf.DisambScans + perf.DisambShortCircuits; d != 3 || perf.DisambScans != 1 {
		t.Errorf("%d disambiguation decisions, %d of them scans; want 3, 1 of them a scan", d, perf.DisambScans)
	}
}

// TestParkedLoadWaitsOnYoungestOverlap pins which overlapping store a load
// waits on: the youngest. The load lo overlaps o, which covers it in part
// and cannot commit before the slow load ahead of it, and matches y, whose
// data a divide delivers late. lo waits on y, and forwards from it in the
// cycle y's data arrives and y issues, long before o commits.
func TestParkedLoadWaitsOnYoungestOverlap(t *testing.T) {
	src := `
		_start:
			la   r2, buf
			addi r1, r0, 7
			addi r3, r0, 84
			addi r4, r0, 2
			ld   r9, 64(r2)     ; slow load: holds o's commit
		o:	sw   r1, 4(r2)
			div  r5, r3, r4     ; y's data, 12 cycles
		y:	sd   r5, 0(r2)
		lo:	ld   r6, 0(r2)      ; parked on y, then forwards 42
			halt
		.data
		buf: .space 128
	`
	c, m, sink := runObserved(t, src, func(cfg *Config, m *testMem) { m.dataLat = 60 }, 20000)
	if c.Reg(6) != 42 || c.Stats().Forwards == 0 {
		t.Errorf("r6 = %d after %d forwards, want 42 forwarded", c.Reg(6), c.Stats().Forwards)
	}
	if m.parked == 0 {
		t.Fatal("the load was never parked")
	}
	p := asm.MustAssemble(src)
	issued, committed := sink.cycles(obs.EvIssue), sink.cycles(obs.EvCommit)
	y, lo, o := issued[p.Symbols["y"]], issued[p.Symbols["lo"]], committed[p.Symbols["o"]]
	if y == 0 || lo != y || lo >= o {
		t.Errorf("lo issued at cycle %d, y at %d, o committed at %d; want lo with y, before o commits", lo, y, o)
	}
}
