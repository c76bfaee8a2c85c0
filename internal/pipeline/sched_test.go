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
	issued := map[uint64]uint64{}
	for _, e := range sink.events {
		if e.Kind == obs.EvIssue {
			issued[e.Addr] = e.Cycle
		}
	}
	st, lo := issued[p.Symbols["st"]], issued[p.Symbols["lo"]]
	if st == 0 || lo != st {
		t.Errorf("store issued at cycle %d, the load it unblocked at %d; want the same cycle", st, lo)
	}
}
