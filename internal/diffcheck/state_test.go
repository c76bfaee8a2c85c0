package diffcheck

import (
	"context"
	"encoding/hex"
	"slices"
	"sync/atomic"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/interp"
	"authpoint/internal/mem"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// countWork counts the oracle runs and state hashes of the checks fn runs.
func countWork(fn func()) (oracles, hashes uint64) {
	var o, h atomic.Uint64
	testHookOracleRun, testHookStateHash = func() { o.Add(1) }, func() { h.Add(1) }
	defer func() { testHookOracleRun, testHookStateHash = nil, nil }()
	fn()
	return o.Load(), h.Load()
}

// cloneMemory copies every page m has written into a new memory.
func cloneMemory(m *mem.Memory) *mem.Memory {
	c := mem.New()
	for _, pn := range m.Pages() {
		c.Write(pn<<mem.PageShift, m.Read(pn<<mem.PageShift, mem.PageSize))
	}
	return c
}

// TestStateMatchIsByteEquality pins the equality a seed's state list
// matches with: a state that differs from a remembered one in exactly one
// input of the digest is hashed afresh and gets its own digest, and one
// equal to it byte for byte, a stack page written with zeros included,
// takes the remembered digest without hashing.
func TestStateMatchIsByteEquality(t *testing.T) {
	p, err := asm.Assemble(GenProgram(1))
	if err != nil {
		t.Fatal(err)
	}
	ranges := digestRanges(p, sim.DefaultConfig().StackB)
	o := interp.New(p)
	if stop := o.Run(DefaultMaxOracleInsts); stop != interp.StopHalt {
		t.Fatalf("oracle stopped with %v", stop)
	}
	base := interpState(o)
	if len(base.outs) == 0 {
		t.Fatal("program has no OUTs")
	}
	data, stack := ranges[0].Start+17, ranges[len(ranges)-1].Start+5000
	l := new(stateList)
	orig := l.snapshot(&base, ranges, nil)
	if !present(orig, data) || present(orig, stack) {
		t.Fatalf("snapshot holds data present=%v, stack present=%v", present(orig, data), present(orig, stack))
	}
	withMem := func(edit func(m *mem.Memory)) func(s *liveState) {
		return func(s *liveState) {
			s.mem = cloneMemory(s.mem)
			edit(s.mem)
		}
	}
	for _, c := range []struct {
		name string
		edit func(s *liveState)
		same bool
	}{
		{"unchanged", func(*liveState) {}, true},
		{"zeroed stack page", withMem(func(m *mem.Memory) { m.StoreByte(stack, 0) }), true},
		{"integer register", func(s *liveState) { s.regs[3] ^= 1 }, false},
		{"FP register", func(s *liveState) { s.fregs[2] ^= 1 }, false},
		{"OUT port", func(s *liveState) { s.outs = slices.Clone(s.outs); s.outs[0].Port ^= 1 }, false},
		{"OUT value", func(s *liveState) { s.outs = slices.Clone(s.outs); s.outs[0].Val ^= 1 }, false},
		{"extra OUT", func(s *liveState) { s.outs = append(slices.Clone(s.outs), interp.OutEvent{}) }, false},
		{"data byte", withMem(func(m *mem.Memory) { m.StoreByte(data, m.LoadByte(data)^1) }), false},
		{"absent stack page byte", withMem(func(m *mem.Memory) { m.StoreByte(stack, 1) }), false},
	} {
		live := base
		c.edit(&live)
		want := interp.DigestArchState(live.regs[:], live.fregs[:], live.outs, live.mem, ranges)
		// A changed state is hashed the first time only: the list keeps it,
		// and the second pass takes the kept digest.
		for pass := range 2 {
			var got string
			_, hashed := countWork(func() { got = l.digest(&live, ranges, orig) })
			wantHashed := uint64(0)
			if !c.same && pass == 0 {
				wantHashed = 1
			}
			if got != hex.EncodeToString(want[:]) || hashed != wantHashed {
				t.Errorf("%s, pass %d: digest %s hashed %d times, want %x hashed %d times", c.name, pass, got, hashed, want, wantHashed)
			}
		}
		if c.same != (want == orig.digest) {
			t.Errorf("%s: digest equal to the remembered one = %v", c.name, want == orig.digest)
		}
	}
}

// tamperCells is every tamper cell of seeds under pols at every site.
func tamperCells(seeds []int64, pols []policy.ControlPoint) []Cell {
	var cells []Cell
	for _, site := range Sites() {
		cells = append(cells, WithSite(CrossCells(seeds, pols, true), site)...)
	}
	return cells
}

// TestTamperDigestIsArchDigest pins the digest a tamper cell takes from
// its oracle or its seed's state list: over seeds 1-8 under every lattice
// point at every site, at one worker and at eight, the SimDigest of every
// tamper cell of a campaign equals the ArchDigest of a fresh run of the
// cell.
func TestTamperDigestIsArchDigest(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	cells := tamperCells(seeds, policy.Lattice())
	progs := map[int64]*asm.Program{}
	for _, s := range seeds {
		p, err := asm.Assemble(GenProgram(s))
		if err != nil {
			t.Fatal(err)
		}
		progs[s] = p
	}
	want := make([]string, len(cells))
	for i, c := range cells {
		opt := Options{Policy: c.Policy, Tamper: true, TamperSite: c.Site}.withDefaults()
		cfg := timedConfig(opt)
		m, err := sim.NewMachine(cfg, progs[c.Seed])
		if err != nil {
			t.Fatal(err)
		}
		if d := tamper(m, opt.TamperSite); d != "" {
			t.Fatal(d)
		}
		m.Run()
		d := m.ArchDigest(digestRanges(progs[c.Seed], cfg.StackB)...)
		m.Release()
		want[i] = hex.EncodeToString(d[:])
	}
	for _, workers := range []int{1, 8} {
		results, _, err := SweepObserved(context.Background(), cells, Options{}, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.SimDigest != want[i] {
				t.Fatalf("%d workers, cell %+v: SimDigest %s, fresh ArchDigest %s", workers, cells[i], res.SimDigest, want[i])
			}
		}
	}
}

// TestSeedStateHashes pins the work the oracle memo and the seeds' state
// lists save: a campaign over seeds 1-3 under every lattice point,
// untampered and at every site, runs the oracle once per seed, since no
// auth of theirs mismatches (once per seed and pointer-auth mode, 9 runs,
// before a clean run served every mode), and hashes only each seed's
// distinct end states. Unmemoized, it hashed 414 states: three oracle runs
// and 135 tamper cells a seed.
func TestSeedStateHashes(t *testing.T) {
	seeds := []int64{1, 2, 3}
	cells := allSiteCells(seeds, policy.Lattice())
	var err error
	oracles, hashes := countWork(func() { _, _, err = SweepObserved(context.Background(), cells, Options{}, 1, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if oracles != 3 || hashes != 17 {
		t.Errorf("%d oracle runs and %d states hashed, want 3 and 17", oracles, hashes)
	}
}

// TestTamperCampaignRunsEachOracleOnce pins the size of the oracle memo a
// campaign attaches: in the shape of a pair-mode authfuzz -tamper campaign,
// every tamper cell after every untampered one, 150 seeds run 150 oracles.
// With a memo capped at 128 keys, each seed's oracle was evicted before
// its tamper cell came and ran twice.
func TestTamperCampaignRunsEachOracleOnce(t *testing.T) {
	seeds := make([]int64, 150)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	pols := policy.Lattice()
	cells := append(PairCells(seeds, pols, false), PairCells(seeds, pols, true)...)
	var err error
	oracles, _ := countWork(func() { _, _, err = SweepObserved(context.Background(), cells, Options{}, 8, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if oracles != uint64(len(seeds)) {
		t.Fatalf("%d oracle runs, want %d", oracles, len(seeds))
	}
}
