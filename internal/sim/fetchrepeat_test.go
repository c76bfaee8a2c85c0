package sim

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/interp"
	"authpoint/internal/isa"
	"authpoint/internal/obs"
	"authpoint/internal/pipeline"
	"authpoint/internal/policy"
	"authpoint/internal/workload"
)

// fullFetch is the memory system with every FetchInst a full lookup: it
// ends the fetch repeat before each fetch, and counts the fetches the
// repeat would have answered.
type fullFetch struct {
	*MemSystem
	repeatable *int
}

func (f fullFetch) FetchInst(now uint64, addr uint64, fetchTag uint64) pipeline.InstFetch {
	if r := f.rep; r.ok && r.now == now && r.line == f.l1i.LineAddr(addr) {
		*f.repeatable++
	}
	f.rep.ok = false
	return f.MemSystem.FetchInst(now, addr, fetchTag)
}

// eventLog records every event.
type eventLog []obs.Event

func (l *eventLog) Emit(e obs.Event) { *l = append(*l, e) }

// fetchRun is what one run of TestFetchRepeatMatchesFullLookup compares.
type fetchRun struct {
	res        Result
	counts     Counts
	itlb, dtlb [2]uint64
	digest     [32]byte
	events     eventLog
}

// crossLinesSrc jumps into the middle of an L1I line, so that a fetch
// group runs from a line into the cold line after it in one cycle.
const crossLinesSrc = `
_start:
	j    mid
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
mid:
	addi r1, r0, 1
	addi r2, r1, 2
	addi r3, r2, 3
	addi r4, r3, 4
	addi r5, r4, 5
	addi r6, r5, 6
	addi r7, r6, 7
	addi r8, r7, 8
	addi r9, r8, 9
	addi r10, r9, 10
	addi r11, r10, 11
	addi r12, r11, 12
	halt
`

// TestFetchRepeatMatchesFullLookup pins the fetch repeat against the full
// lookup it skips: three kernels (past the start-up code, in which fetch
// groups rarely hold two words of one line) and a program whose fetch
// groups cross into cold lines run under each policy once as built and once
// with every FetchInst a full lookup, and the two runs must agree on the
// result, every count (the TLBs' too), the architectural digest and every
// event.
func TestFetchRepeatMatchesFullLookup(t *testing.T) {
	pols := []policy.ControlPoint{policy.Baseline, policy.ThenIssue, policy.CommitPlusFetch, policy.CommitPlusObfuscation}
	progs := map[string]string{"cross-lines": crossLinesSrc}
	for _, name := range []string{"bzip2x", "mcfx", "artx"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		progs[name] = w.Source
	}
	for name, src := range progs {
		p := asm.MustAssemble(src)
		for _, pt := range pols {
			cfg := DefaultConfig()
			cfg.Policy = pt
			cfg.MaxInsts = 60_000
			got := runFetch(t, cfg, p, nil)
			var repeatable int
			want := runFetch(t, cfg, p, &repeatable)
			if repeatable == 0 {
				t.Errorf("%s under %v: no fetch repeated a line; the shortcut went untested", name, pt)
			}
			if got.res != want.res {
				t.Errorf("%s under %v: result\n got  %+v\n want %+v", name, pt, got.res, want.res)
			}
			for k, v := range want.counts {
				if got.counts[k] != v {
					t.Errorf("%s under %v: %s = %d, want %d", name, pt, k, got.counts[k], v)
				}
			}
			if got.itlb != want.itlb || got.dtlb != want.dtlb {
				t.Errorf("%s under %v: TLB hits/misses I %v D %v, want I %v D %v", name, pt, got.itlb, got.dtlb, want.itlb, want.dtlb)
			}
			if got.digest != want.digest {
				t.Errorf("%s under %v: architectural digest differs", name, pt)
			}
			if len(got.events) != len(want.events) {
				t.Errorf("%s under %v: %d events, want %d", name, pt, len(got.events), len(want.events))
			}
			for i := range min(len(got.events), len(want.events)) {
				if got.events[i] != want.events[i] {
					t.Errorf("%s under %v: event %d is %+v, want %+v", name, pt, i, got.events[i], want.events[i])
					break
				}
			}
		}
	}
}

// runFetch runs p under cfg with an event log attached. With repeatable set,
// the core fetches through fullFetch.
func runFetch(t *testing.T, cfg Config, p *asm.Program, repeatable *int) fetchRun {
	t.Helper()
	m, err := Fresh(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repeatable != nil {
		// Rewire the core as build does, onto the wrapper.
		if err := m.Core.Reset(m.Cfg.Pipeline, fullFetch{m.MS, repeatable}, p.Entry); err != nil {
			t.Fatal(err)
		}
		m.Core.SetReg(isa.RegSP, m.stackTop())
		m.Core.SetUopCache(m.uops)
	}
	var r fetchRun
	m.SetObserver(&r.events)
	if r.res, err = m.Run(); err != nil {
		t.Fatal(err)
	}
	r.counts = m.Counts()
	itlb, dtlb := m.MS.TLBs()
	r.itlb[0], r.itlb[1] = itlb.Stats()
	r.dtlb[0], r.dtlb[1] = dtlb.Stats()
	r.digest = m.ArchDigest(interp.MemRange{Start: p.DataBase, Len: uint64(len(p.Data))})
	return r
}
