package diffcheck

import (
	"context"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/campaign"
	"authpoint/internal/interp"
	"authpoint/internal/mem"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// okRun is an untampered cell run the way check runs it: the machine after
// its run, kept unreleased, its end state, and the oracle snapshot it is
// compared with.
type okRun struct {
	m      *sim.Machine
	live   liveState
	simRes sim.Result
	oracle *oracleState
	ranges []interp.MemRange
}

func runCell(t *testing.T, seed int64, pt policy.ControlPoint) okRun {
	t.Helper()
	p, err := asm.Assemble(GenProgram(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = pt
	ranges := digestRanges(p, cfg.StackB)
	oracle := runOracle(p, sim.PACMode(pt), ranges, new(stateList))
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return okRun{m: m, live: simState(m), simRes: simRes, oracle: oracle, ranges: ranges}
}

// compareWords is compare's memory walk as it ran before end states were
// compared a page span at a time: every window eight bytes at a time, the
// snapshot read back through a memory its present spans are written into.
func compareWords(oracle *oracleState, m *sim.Machine, ranges []interp.MemRange) string {
	want := mem.New()
	for _, s := range oracle.state.spans {
		if s.b != nil {
			want.Write(s.addr, s.b)
		}
	}
	for _, rg := range ranges {
		for off := uint64(0); off < rg.Len; off += 8 {
			n := int(min(8, rg.Len-off))
			got, want := m.Shadow.ReadUint(rg.Start+off, n), want.ReadUint(rg.Start+off, n)
			if got != want {
				return fmt.Sprintf("mem[%#x] = %#x, oracle %#x", rg.Start+off, got, want)
			}
		}
	}
	return ""
}

// present reports whether a holds the span at addr as present.
func present(a *archState, addr uint64) bool {
	for _, s := range a.spans {
		if addr-s.addr < s.n {
			return s.b != nil
		}
	}
	return false
}

// withByte returns a copy of a with the byte at addr XORed with x; a span
// held as absent becomes a present page of zeros first.
func withByte(a *archState, addr uint64, x byte) *archState {
	c := *a
	c.spans = slices.Clone(a.spans)
	for i := range c.spans {
		s := &c.spans[i]
		if addr-s.addr < s.n {
			if s.b == nil {
				s.b = make([]byte, s.n)
			}
			s.b = slices.Clone(s.b)
			s.b[addr-s.addr] ^= x
		}
	}
	return &c
}

// TestCompareMemoryText pins compare's memory divergence text: a byte
// changed in a copy of the oracle snapshot, at the first byte, on either
// side of a page boundary, or at the last byte of a window, is described
// exactly as the word-by-word walk describes it. The data window's bytes
// are a page the oracle wrote; the stack's are pages it never wrote, which
// the snapshot holds as absent.
func TestCompareMemoryText(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := runCell(t, seed, policy.ThenCommit)
		if d := compare(r.oracle, &r.live, r.simRes, r.ranges); d != "" {
			t.Fatalf("seed %d: untouched snapshot diverges: %s", seed, d)
		}
		if len(r.ranges) < 2 {
			t.Fatalf("seed %d has no data window", seed)
		}
		for ri, rg := range r.ranges {
			boundary := uint64(mem.PageSize) - rg.Start%mem.PageSize
			for _, off := range []uint64{0, boundary - 1, boundary, rg.Len - 1} {
				if off >= rg.Len {
					continue
				}
				addr := rg.Start + off
				if stack := ri == len(r.ranges)-1; present(r.oracle.state, addr) == stack {
					t.Fatalf("seed %d: span at %#x held present=%v, want %v", seed, addr, stack, !stack)
				}
				st := *r.oracle
				st.state = withByte(st.state, addr, 0xa5)
				got, want := compare(&st, &r.live, r.simRes, r.ranges), compareWords(&st, r.m, r.ranges)
				if got != want || got == "" {
					t.Errorf("seed %d, window %d, offset %d: compare = %q, word walk %q", seed, ri, off, got, want)
				}
			}
		}
		r.m.Release()
	}
}

// TestOKDigestIsArchDigest pins the digest an ok cell reports without
// hashing: over seeds 1-40 under every lattice point, the SimDigest of every
// untampered ok cell of a campaign equals the ArchDigest of a fresh run of
// the cell.
func TestOKDigestIsArchDigest(t *testing.T) {
	seeds := make([]int64, 40)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	cells := CrossCells(seeds, policy.Lattice(), false)
	results, _, err := SweepObserved(context.Background(), cells, Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i, res := range results {
		if res.Verdict != VerdictOK {
			continue
		}
		ok++
		r := runCell(t, cells[i].Seed, cells[i].Policy)
		d := r.m.ArchDigest(r.ranges...)
		r.m.Release()
		if got := hex.EncodeToString(d[:]); res.SimDigest != got {
			t.Fatalf("seed %d under %v: SimDigest %s, fresh ArchDigest %s", res.Seed, res.Policy, res.SimDigest, got)
		}
	}
	if ok != len(cells) {
		t.Fatalf("%d of %d cells ok", ok, len(cells))
	}
}

// TestCampaignMatchesChecks pins the seed and oracle memos of a campaign:
// at one worker and at eight, a memoized campaign over seeds × the lattice,
// untampered and at every tamper site, returns for every cell exactly the
// result an unmemoized check of the cell returns.
func TestCampaignMatchesChecks(t *testing.T) {
	seeds := []int64{1, 2, 3}
	pols := policy.Lattice()
	cells := CrossCells(seeds, pols, false)
	for _, site := range Sites() {
		cells = append(cells, WithSite(CrossCells(seeds, pols, true), site)...)
	}
	want := make([]Result, len(cells))
	for i, c := range cells {
		want[i], _ = CheckSeed(c.Seed, Options{Policy: c.Policy, Tamper: c.Tamper, TamperSite: c.Site})
	}
	for _, workers := range []int{1, 8} {
		got, _, err := SweepObserved(context.Background(), cells, Options{}, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%d workers, cell %+v:\ncampaign: %+v\ncheck:    %+v", workers, cells[i], got[i], want[i])
			}
		}
	}
}

// TestCacheHitSkipsAssembly pins the laziness of a shared source: a check
// the result store serves never loads the program, and a miss loads it.
func TestCacheHitSkipsAssembly(t *testing.T) {
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := GenProgram(1)
	Check(src, Options{Policy: policy.ThenCommit, Cache: store})
	s := newSource(src)
	load, loads := s.load, 0
	s.load = func() program { loads++; return load() }
	if res := checkSource(s, Options{Policy: policy.ThenCommit, Cache: store}); !res.Cached || loads != 0 {
		t.Fatalf("warm check: cached=%v, %d loads", res.Cached, loads)
	}
	if res := checkSource(s, Options{Policy: policy.ThenIssue, Cache: store}); res.Cached || loads != 1 {
		t.Fatalf("cold check: cached=%v, %d loads", res.Cached, loads)
	}
}
