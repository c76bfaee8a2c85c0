package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/diffcheck"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// eventTally forwards every event to next and sums, under each count's
// name, what the events alone show of it.
type eventTally struct {
	next obs.Sink
	n    map[string]uint64
}

func newEventTally(next obs.Sink) *eventTally {
	return &eventTally{next: next, n: map[string]uint64{}}
}

func (e *eventTally) Emit(ev obs.Event) {
	e.next.Emit(ev)
	switch ev.Kind {
	case obs.EvFetch, obs.EvDispatch, obs.EvIssue, obs.EvCommit:
		e.n["pipe."+ev.Kind.String()]++
	case obs.EvSquash:
		e.n["pipe.squash"] += ev.A
	case obs.EvAuthRequest:
		e.n["auth.requests"]++
	case obs.EvAuthFail:
		e.n["auth.failures"]++
	case obs.EvSecFetch:
		e.n["sec.fetches"]++
	case obs.EvWriteBack:
		e.n["sec.writebacks"]++
	case obs.EvFetchGateWait:
		e.n["sec.fetch_gate_wait_cycles"] += ev.A
	case obs.EvBusTxn:
		e.n["bus.txns"]++
	case obs.EvCacheHit:
		e.n["cache."+ev.Track.String()+".hits"]++
	case obs.EvCacheMiss:
		e.n["cache."+ev.Track.String()+".misses"]++
	}
}

// A full-auth (then-commit + then-fetch) run with an observer attached must
// produce a valid Perfetto trace in which auth-complete lags decrypt-ready,
// and a metrics snapshot in which every count is its owner's, equal to what
// the event stream shows of it.
func TestTracedFullAuthRun(t *testing.T) {
	p := asm.MustAssemble(`
	_start:
		la   r1, arr
		li   r2, 256
	loop:
		ld   r3, 0(r1)
		add  r4, r4, r3
		addi r1, r1, 64
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	.data
	arr: .space 16384
	`)
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.CommitPlusFetch
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub(obs.NewTracer(0), true)
	tally := newEventTally(hub)
	m.SetObserver(tally)
	m.EnablePerf()
	res, err := m.Run()
	if err != nil || res.Reason != sim.StopHalt {
		t.Fatalf("%v %v", res.Reason, err)
	}

	snap := m.Metrics(hub, nil)
	l1i, l1d, l2 := m.MS.Caches()
	ctr, tree := m.Ctrl.Caches()
	if ctr == nil || tree != nil {
		t.Fatalf("default config: counter cache %v, tree cache %v", ctr, tree)
	}
	owners := map[string]uint64{
		"pipe.fetch":                 res.Core.Fetched,
		"pipe.dispatch":              res.Core.Dispatched,
		"pipe.issue":                 res.Core.Issued,
		"pipe.commit":                res.Core.Committed,
		"pipe.squash":                res.Core.Squashed,
		"stall.commit-auth.cycles":   res.Core.CommitAuthStall,
		"stall.issue-auth.cycles":    res.Core.IssueAuthStall,
		"stall.sb-full.cycles":       res.Core.SBFullStall,
		"auth.requests":              res.Sec.AuthRequests,
		"auth.failures":              res.Sec.AuthFailures,
		"sec.fetches":                res.Sec.Fetches,
		"sec.writebacks":             res.Sec.Writebacks,
		"sec.fetch_gate_wait_cycles": m.MS.FetchGateWait,
		"bus.txns":                   m.Bus.Txns(),
		"cache.l1i.hits":             l1i.Stats().Hits,
		"cache.l1i.misses":           l1i.Stats().Misses,
		"cache.l1d.hits":             l1d.Stats().Hits,
		"cache.l1d.misses":           l1d.Stats().Misses,
		"cache.l2.hits":              l2.Stats().Hits,
		"cache.l2.misses":            l2.Stats().Misses,
		"cache.ctr-cache.hits":       res.Sec.CtrHits,
		"cache.ctr-cache.misses":     res.Sec.CtrMisses,
	}
	for name, want := range owners {
		got, ok := snap.Counters[name]
		if !ok || got != want {
			t.Errorf("%s = %d (present %v), its owner counted %d", name, got, ok, want)
		}
		if ev, derived := tally.n[name]; derived && ev != want {
			t.Errorf("%s = %d, the events show %d", name, want, ev)
		}
	}
	// The run must tell the counts apart, or a name read from the wrong
	// field would pass.
	if res.Core.Fetched == res.Core.Dispatched || res.Core.Dispatched == res.Core.Issued ||
		res.Core.Issued == res.Core.Committed || res.Core.CommitAuthStall == 0 ||
		m.MS.FetchGateWait == 0 || res.Sec.CtrHits == 0 || res.Sec.CtrMisses == 0 {
		t.Errorf("run too uniform to pin the count names: %+v, gate wait %d, sec %+v",
			res.Core, m.MS.FetchGateWait, res.Sec)
	}
	if res.Sec.CtrHits+res.Sec.CtrMisses != res.Sec.Fetches {
		t.Errorf("counter-cache lookups %d+%d, fetches %d", res.Sec.CtrHits, res.Sec.CtrMisses, res.Sec.Fetches)
	}
	if _, ok := snap.Counters["cache.tree-cache.hits"]; ok {
		t.Error("a run without a MAC tree reports tree-cache counts")
	}
	gap := snap.Histograms[obs.MetricAuthGap]
	if gap.Count == 0 || gap.Sum == 0 {
		t.Fatalf("decrypt→auth gap histogram empty: %+v", gap)
	}
	lat := snap.Histograms[obs.MetricAuthLatency]
	if lat.Count != res.Sec.AuthRequests {
		t.Errorf("latency samples = %d, want %d", lat.Count, res.Sec.AuthRequests)
	}
	if snap.Counters["stall.commit-auth.events"] == 0 {
		t.Error("hub saw no commit-auth stall open")
	}

	var buf bytes.Buffer
	if err := hub.Tracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	// Auth-complete lagging decrypt-ready shows up as "gap" spans.
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var gaps, verifies int
	for _, e := range f.TraceEvents {
		switch e.Name {
		case "gap":
			if e.Dur > 0 {
				gaps++
			}
		case "auth-verify":
			verifies++
		}
	}
	if gaps == 0 {
		t.Error("trace shows no auth-complete lagging decrypt-ready")
	}
	if verifies == 0 {
		t.Error("trace has no auth-verify spans")
	}
}

// Under the MAC tree the snapshot carries the tree-node cache's counts,
// the controller's own view of them.
func TestTreeCacheCounts(t *testing.T) {
	p := asm.MustAssemble(diffcheck.GenProgram(1))
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	cfg.Sec.UseTree = true
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub(nil, true)
	tally := newEventTally(hub)
	m.SetObserver(tally)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics(hub, nil)
	_, tree := m.Ctrl.Caches()
	hits, misses := snap.Counters["cache.tree-cache.hits"], snap.Counters["cache.tree-cache.misses"]
	if hits != res.Sec.TreeCacheHits || hits != tree.Stats().Hits || misses != tree.Stats().Misses {
		t.Errorf("tree-cache hits %d misses %d; controller counted %d hits, cache %+v",
			hits, misses, res.Sec.TreeCacheHits, tree.Stats())
	}
	if hits != tally.n["cache.tree-cache.hits"] || misses != tally.n["cache.tree-cache.misses"] {
		t.Errorf("tree-cache hits %d misses %d, the events show %d and %d",
			hits, misses, tally.n["cache.tree-cache.hits"], tally.n["cache.tree-cache.misses"])
	}
	if hits == 0 || misses == 0 {
		t.Errorf("run too short to pin the tree-cache names: %d hits, %d misses", hits, misses)
	}
}

// Regression: a run that ends in a security fault mid-stall reports the
// stall cycles the core counted up to the fault. The hub used to derive
// them from stall intervals, closing the open one at the newest event cycle
// it had seen — an auth completion the controller stamps ahead of time — and
// read 231 here.
func TestStallCyclesAtSecurityFault(t *testing.T) {
	p := asm.MustAssemble(diffcheck.GenProgram(1))
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	cfg.MaxInsts = 100_000
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	m.Memory.XorRange(p.Entry, []byte{0x40}) // diffcheck's entry-line tamper
	hub := obs.NewHub(nil, true)
	m.SetObserver(hub)
	res, _ := m.Run()
	if res.Reason != sim.StopSecurityFault || res.Cycles != 293 {
		t.Fatalf("run stopped by %v at cycle %d, want a security fault at 293", res.Reason, res.Cycles)
	}
	got := m.Metrics(hub, nil).Counters["stall.commit-auth.cycles"]
	if got != res.Core.CommitAuthStall || got != 71 {
		t.Errorf("stall.commit-auth.cycles = %d, core counted %d (want 71)", got, res.Core.CommitAuthStall)
	}
}

// Regression: the fetch-gate wait counts the fetches the controller
// accepts, prefetches included. Seed 1's run has a wrong-path fetch of
// line 0x1180, past the end of the text, which the controller refuses; the
// memory system used to count its 64-cycle wait too and read 317, and it
// left out the waits of prefetches.
func TestFetchGateWaitCountsAcceptedFetches(t *testing.T) {
	p := asm.MustAssemble(diffcheck.GenProgram(1))
	for _, prefetch := range []bool{false, true} {
		cfg := sim.DefaultConfig()
		cfg.Policy = policy.CommitPlusFetch
		cfg.Mem.NextLinePrefetch = prefetch
		m, err := sim.NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		tally := newEventTally(obs.NewHub(nil, false))
		m.SetObserver(tally)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		got, ev := m.MS.FetchGateWait, tally.n["sec.fetch_gate_wait_cycles"]
		if got != ev || (!prefetch && got != 253) || m.MS.Prefetches > 0 != prefetch {
			t.Errorf("prefetch %v: FetchGateWait = %d, the controller's fetches waited %d (want 253 without prefetch); %d prefetches",
				prefetch, got, ev, m.MS.Prefetches)
		}
	}
}

// Every name a snapshot carries has one source: the count vector, the perf
// block and the hub name pairwise disjoint sets.
func TestMetricNamesHaveOneSource(t *testing.T) {
	p := asm.MustAssemble("_start:\n\thalt\n")
	m, err := sim.NewMachine(sim.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]bool{}
	for name := range m.Counts() {
		counts[name] = true
	}
	perf := obs.Perf{SkipCalls: 1}
	for b := range perf.SkipBoundCycles {
		perf.SkipBoundCycles[b] = 1
	}
	ps := &obs.Snapshot{}
	perf.AddTo(ps)
	hs := obs.NewHub(nil, true).Snapshot()
	hub := map[string]bool{}
	for name := range hs.Counters {
		hub[name] = true
	}
	for name := range hs.Histograms {
		hub[name] = true
	}
	if len(counts) != 24 || len(ps.Counters) != 21 || len(hub) != 7 {
		t.Errorf("%d count, %d perf and %d hub names; want 24, 21 and 7", len(counts), len(ps.Counters), len(hub))
	}
	for name := range ps.Counters {
		if counts[name] || hub[name] {
			t.Errorf("perf name %s has a second source", name)
		}
	}
	for name := range hub {
		if counts[name] {
			t.Errorf("hub name %s is also a count", name)
		}
	}
}

// An observer-free run must be bit-identical in timing to an observed one:
// the sink changes what is recorded, never what is simulated.
func TestObserverDoesNotPerturbTiming(t *testing.T) {
	src := `
	_start:
		la   r1, arr
		li   r2, 64
	loop:
		ld   r3, 0(r1)
		addi r1, r1, 64
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	.data
	arr: .space 4096
	`
	run := func(observe bool) sim.Result {
		p := asm.MustAssemble(src)
		cfg := sim.DefaultConfig()
		cfg.Policy = policy.ThenCommit
		m, err := sim.NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			m.SetObserver(obs.NewHub(obs.NewTracer(0), true))
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, observed := run(false), run(true)
	if plain.Cycles != observed.Cycles || plain.Insts != observed.Insts {
		t.Fatalf("observer perturbed timing: %d/%d cycles, %d/%d insts",
			plain.Cycles, observed.Cycles, plain.Insts, observed.Insts)
	}
}

// issueGateProgram is a 100-iteration loop on the text line 0x10c0. Each
// iteration loads conflicts data lines 64 KB apart, all in the 4-way L2 set
// of the loop's own line, and then, with textLoad, a word of that line.
func issueGateProgram(conflicts int, textLoad bool) *asm.Program {
	var b strings.Builder
	b.WriteString("_start:\n\tbeq r0, r0, setup\n")
	// Pad from 0x1004 to the loop's line.
	b.WriteString(strings.Repeat("\tadd r1, r1, r0\n", (0x10c0-0x1004)/4))
	b.WriteString("loop:\n")
	for k := 0; k < conflicts; k++ {
		fmt.Fprintf(&b, "\tld r%d, 0(r%d)\n", 4+k, 12+k)
	}
	if textLoad {
		b.WriteString("\tld r11, 32(r2)\n")
	}
	b.WriteString("\taddi r3, r3, -1\n\tbne r3, r0, loop\n\thalt\nsetup:\n")
	for k := 0; k < conflicts; k++ {
		fmt.Fprintf(&b, "\tli r%d, %#x\n", 12+k, 0x1010c0+k<<16)
	}
	b.WriteString("\tla r2, loop\n\tli r3, 100\n\tbeq r0, r0, loop\n.data\n\t.space 0x50000\n")
	p := asm.MustAssemble(b.String())
	if p.Symbols["loop"] != 0x10c0 {
		panic(fmt.Sprintf("loop at %#x", p.Symbols["loop"]))
	}
	return p
}

// The authen-then-issue gate holds when an instruction is fetched from an
// L1I line whose L2 line a data access has re-fetched: the L1I hit is ready
// at once, but it carries the re-fetched line's verification time. Here the
// four data lines evict the loop's L2 line, and the load from the loop's
// own line fetches it again. The snapshot's stall cycles are the core's on
// the fast and the slow path; without the re-fetch, or under a policy with
// no issue gate, nothing stalls.
func TestIssueGateHoldsOnRefetchedText(t *testing.T) {
	for _, tc := range []struct {
		name              string
		conflicts         int
		textLoad          bool
		pol               policy.ControlPoint
		stall, stallCount uint64
	}{
		{"then-issue", 4, true, policy.ThenIssue, 784, 1},
		{"authen-only", 4, true, policy.AuthOnly, 0, 0},
		{"no text load", 4, false, policy.ThenIssue, 0, 0},
		{"three conflicts", 3, true, policy.ThenIssue, 0, 0},
	} {
		p := issueGateProgram(tc.conflicts, tc.textLoad)
		var cycles [2]uint64
		for i, slow := range []bool{false, true} {
			cfg := sim.DefaultConfig()
			cfg.Policy = tc.pol
			m, err := sim.NewMachine(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if slow {
				m.DisableFastPath()
			}
			hub := obs.NewHub(nil, true)
			m.SetObserver(hub)
			res, err := m.Run()
			if err != nil || res.Reason != sim.StopHalt {
				t.Fatalf("%s: %v %v", tc.name, res.Reason, err)
			}
			snap := m.Metrics(hub, nil)
			got, events := snap.Counters["stall.issue-auth.cycles"], snap.Counters["stall.issue-auth.events"]
			if got != res.Core.IssueAuthStall || got != tc.stall || events != tc.stallCount {
				t.Errorf("%s (slow path %v): stall.issue-auth.cycles = %d in %d events, the core counted %d; want %d in %d",
					tc.name, slow, got, events, res.Core.IssueAuthStall, tc.stall, tc.stallCount)
			}
			cycles[i] = res.Cycles
		}
		if cycles[0] != cycles[1] {
			t.Errorf("%s: fast path halts at cycle %d, slow path at %d", tc.name, cycles[0], cycles[1])
		}
	}
}
