package pipeline

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/isa"
	"authpoint/internal/obs"
)

// recSink records every emitted event for inspection.
type recSink struct{ events []obs.Event }

func (r *recSink) Emit(e obs.Event) { r.events = append(r.events, e) }

// cycles maps the PC of each event of kind k to the cycle of its last such
// event.
func (r *recSink) cycles(k obs.Kind) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for _, e := range r.events {
		if e.Kind == k {
			out[e.Addr] = e.Cycle
		}
	}
	return out
}

// runObserved is run() with an event sink attached before the first cycle.
func runObserved(t *testing.T, src string, mutate func(*Config, *testMem), maxCycles int) (*Core, *testMem, *recSink) {
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
	sink := &recSink{}
	c.SetObserver(sink)
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
	return c, m, sink
}

const storeBurstSrc = `
	_start:
		la   r2, buf
		addi r1, r0, 7
		sd   r1, 0(r2)
		sd   r1, 8(r2)
		sd   r1, 16(r2)
		sd   r1, 24(r2)
		sd   r1, 32(r2)
		sd   r1, 40(r2)
		sd   r1, 48(r2)
		sd   r1, 56(r2)
		halt
	.data
	buf: .space 128
`

// TestSBFullStallCounted pins the store-buffer-full stall counter: a burst of
// back-to-back stores against a 1-entry buffer that drains every 16 cycles
// must block commit, count SBFullStall cycles, and still land every store.
func TestSBFullStallCounted(t *testing.T) {
	c, m := run(t, storeBurstSrc, func(cfg *Config, m *testMem) {
		m.sbCap = 1
		m.sbDrain = 16
	}, 20000)
	if got := len(m.stores); got != 8 {
		t.Fatalf("stores landed: %d, want 8", got)
	}
	if c.Stats().SBFullStall == 0 {
		t.Error("no store-buffer-full stalls recorded")
	}
	// Control: same program with an unbounded buffer must not stall.
	c2, _ := run(t, storeBurstSrc, nil, 20000)
	if c2.Stats().SBFullStall != 0 {
		t.Errorf("unbounded buffer recorded %d sb-full stalls", c2.Stats().SBFullStall)
	}
	if c.Stats().Cycles <= c2.Stats().Cycles {
		t.Errorf("bounded buffer (%d cycles) should be slower than unbounded (%d)",
			c.Stats().Cycles, c2.Stats().Cycles)
	}
}

// stallIntervals folds a recorded event stream into per-reason interval
// sums, checking begin/end alternation along the way.
func stallIntervals(t *testing.T, events []obs.Event, endCycle uint64) [obs.NumStallReasons]uint64 {
	t.Helper()
	var open [obs.NumStallReasons]*uint64
	var sums [obs.NumStallReasons]uint64
	for _, e := range events {
		switch e.Kind {
		case obs.EvStallBegin:
			r := obs.StallReason(e.A)
			if open[r] != nil {
				t.Fatalf("stall %v begun twice without end (cycles %d, %d)", r, *open[r], e.Cycle)
			}
			cy := e.Cycle
			open[r] = &cy
		case obs.EvStallEnd:
			r := obs.StallReason(e.A)
			if open[r] == nil {
				t.Fatalf("stall %v ended at cycle %d without begin", r, e.Cycle)
			}
			if e.Cycle < *open[r] {
				t.Fatalf("stall %v ends at %d before begin %d", r, e.Cycle, *open[r])
			}
			sums[r] += e.Cycle - *open[r]
			open[r] = nil
		}
	}
	for r, b := range open {
		if b != nil {
			sums[r] += endCycle - *b
		}
	}
	return sums
}

// issueGateSrc is held at the issue stage by slow instruction
// authentication under authen-then-issue.
const issueGateSrc = `
	_start:
		addi r1, r0, 1
		addi r2, r0, 2
		add  r3, r1, r2
		halt
`

func gateIssue(cfg *Config, m *testMem) {
	cfg.GateIssue = true
	m.authDelay = 300
}

// TestStallEventsMatchCounters pins the stall begin/end protocol against the
// core's own cycle counters for every reason: events alternate per reason,
// and interval sums equal the counted stall cycles.
func TestStallEventsMatchCounters(t *testing.T) {
	t.Run("commit-auth", func(t *testing.T) {
		c, _, sink := runObserved(t, `
			_start:
				addi r1, r0, 1
				addi r2, r0, 2
				add  r3, r1, r2
				halt
		`, func(cfg *Config, m *testMem) {
			cfg.GateCommit = true
			m.authDelay = 200
		}, 20000)
		if c.Stats().CommitAuthStall == 0 {
			t.Fatal("no commit-auth stalls recorded")
		}
		sums := stallIntervals(t, sink.events, c.Stats().Cycles)
		if sums[obs.StallCommitAuth] != c.Stats().CommitAuthStall {
			t.Errorf("commit-auth interval sum %d != counter %d",
				sums[obs.StallCommitAuth], c.Stats().CommitAuthStall)
		}
	})
	t.Run("sb-full", func(t *testing.T) {
		c, _, sink := runObserved(t, storeBurstSrc, func(cfg *Config, m *testMem) {
			m.sbCap = 1
			m.sbDrain = 16
		}, 20000)
		if c.Stats().SBFullStall == 0 {
			t.Fatal("no sb-full stalls recorded")
		}
		sums := stallIntervals(t, sink.events, c.Stats().Cycles)
		if sums[obs.StallSBFull] != c.Stats().SBFullStall {
			t.Errorf("sb-full interval sum %d != counter %d",
				sums[obs.StallSBFull], c.Stats().SBFullStall)
		}
	})
	t.Run("issue-auth", func(t *testing.T) {
		c, _, sink := runObserved(t, issueGateSrc, gateIssue, 20000)
		if c.Stats().IssueAuthStall == 0 {
			t.Fatal("no issue-auth stalls recorded")
		}
		sums := stallIntervals(t, sink.events, c.Stats().Cycles)
		if sums[obs.StallIssueAuth] != c.Stats().IssueAuthStall {
			t.Errorf("issue-auth interval sum %d != counter %d",
				sums[obs.StallIssueAuth], c.Stats().IssueAuthStall)
		}
	})
}

// TestIssueAuthStallCounted pins the issue-auth stall counter: slow
// instruction authentication under authen-then-issue must hold ready
// instructions at the issue stage, and the counter counts cycles, once per
// cycle however many entries are held (three are, here).
func TestIssueAuthStallCounted(t *testing.T) {
	c, _ := run(t, issueGateSrc, gateIssue, 20000)
	st := c.Stats()
	if st.IssueAuthStall == 0 {
		t.Fatal("no issue-auth stalls recorded")
	}
	if st.IssueAuthStall >= st.Cycles {
		t.Errorf("issue-auth stall %d cycles in a %d-cycle run", st.IssueAuthStall, st.Cycles)
	}
}

// TestSkipToMatchesStepping pins the idle-cycle fast-forward against plain
// stepping on a run held at the issue gate: NextEventAt finds the held
// entries' verification cycles in the ready mask, and SkipTo credits the
// skipped cycles to the issue-auth stall once per cycle, as the issue stage
// does, however many entries are held.
func TestSkipToMatchesStepping(t *testing.T) {
	runStats := func(skip bool) (Stats, int) {
		p := asm.MustAssemble(issueGateSrc)
		m := newTestMem(p)
		cfg := DefaultConfig()
		gateIssue(&cfg, m)
		c, err := New(cfg, m, p.Entry)
		if err != nil {
			t.Fatal(err)
		}
		skips := 0
		for i := 0; i < 20000 && !c.Halted(); i++ {
			c.Step()
			if !skip || c.Progressed() {
				continue
			}
			if next := c.NextEventAt(); next > c.Now() && next != neverCycle {
				c.SkipTo(next)
				skips++
			}
		}
		if !c.Halted() {
			t.Fatalf("skip %v: did not halt", skip)
		}
		return c.Stats(), skips
	}
	stepped, _ := runStats(false)
	fast, skips := runStats(true)
	if skips == 0 {
		t.Fatal("the run never skipped a cycle")
	}
	if fast != stepped {
		t.Errorf("skipping run %+v\nstepped run  %+v", fast, stepped)
	}
}
