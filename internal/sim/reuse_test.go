package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/bus"
	"authpoint/internal/cryptoengine/mactree"
	"authpoint/internal/diffcheck"
	"authpoint/internal/interp"
	"authpoint/internal/mem"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// buildSpec is one machine a reuse test builds.
type buildSpec struct {
	name  string
	p     *asm.Program
	cfg   sim.Config
	extra []sim.Region
}

func (s buildSpec) String() string { return s.name }

// probeWindow is an extra protected region clear of every program's text,
// data and stack.
var probeWindow = []sim.Region{{Start: 0x600000, Size: 16 << 10}}

func mustAssemble(tb testing.TB, src string) *asm.Program {
	tb.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func kernel(tb testing.TB, name string) *asm.Program {
	tb.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("workload %s missing", name)
	}
	return mustAssemble(tb, w.Source)
}

// reuseSpecs is the build sequence of TestReusedMachineEqualsFresh: twelve
// generated programs and a secret-carrying one, each flat and with the MAC
// tree, with and without MacCoversCounter and a probe window, the policy
// cycling through three points (so obfuscation turns on and off), with
// artx and mcfx, flat and tree, between them and one smaller L2. Each
// build follows one that differs from it: another program, bigger or
// smaller, another MAC mode, regions or none, obfuscation on or off, or the
// cache geometry.
func reuseSpecs(tb testing.TB, kernels bool) []buildSpec {
	type prog struct {
		name string
		p    *asm.Program
	}
	var progs []prog
	for s := int64(1); s <= 12; s++ {
		progs = append(progs, prog{fmt.Sprintf("gen%d", s), mustAssemble(tb, diffcheck.GenProgram(s))})
	}
	progs = append(progs, prog{"secret1", mustAssemble(tb, diffcheck.GenSecretProgram(1))})
	pols := []policy.ControlPoint{policy.ThenCommit, policy.CommitPlusObfuscation, policy.Baseline}
	var specs []buildSpec
	add := func(name string, p *asm.Program, tree, covers, probe bool, mutate func(*sim.Config)) {
		cfg := sim.DefaultConfig()
		cfg.TraceBus = true
		cfg.MaxInsts = 30_000
		cfg.Policy = pols[len(specs)%len(pols)]
		cfg.Sec.UseTree, cfg.Sec.MacCoversCounter = tree, covers
		if mutate != nil {
			mutate(&cfg)
		}
		s := buildSpec{name: fmt.Sprintf("%s tree=%v covers=%v probe=%v %v", name, tree, covers, probe, cfg.Policy), p: p, cfg: cfg}
		if probe {
			s.extra = probeWindow
		}
		specs = append(specs, s)
	}
	for i, pr := range progs {
		for _, tree := range []bool{false, true} {
			for _, covers := range []bool{true, false} {
				for _, probe := range []bool{false, true} {
					add(pr.name, pr.p, tree, covers, probe, nil)
				}
			}
		}
		switch {
		case i == 5 && kernels:
			for _, k := range []string{"artx", "mcfx"} {
				p := kernel(tb, k)
				add(k, p, false, true, false, nil)
				add(k, p, true, true, true, nil)
			}
		case i == 8:
			add(pr.name+" l2=128KB", pr.p, false, true, false, func(c *sim.Config) { c.Mem.L2B = 128 << 10 })
		}
	}
	return specs
}

// sealedDiff describes the first difference between two machines' built
// state, before Run: every page of external memory (so every protected
// line's ciphertext and flat MAC), every page of the plaintext shadow,
// every protected line's counter and leaf index, the MAC tree's nodes and
// root, and the mapped pages. It returns "" if there is none.
func sealedDiff(got, want *sim.Machine) string {
	for _, mm := range []struct {
		name      string
		got, want *mem.Memory
	}{{"memory", got.Memory, want.Memory}, {"shadow", got.Shadow, want.Shadow}} {
		gp, wp := mm.got.Pages(), mm.want.Pages()
		if !slices.Equal(gp, wp) {
			return fmt.Sprintf("%s pages %x, want %x", mm.name, gp, wp)
		}
		for _, pn := range wp {
			if g, w := mm.got.Read(pn<<mem.PageShift, mem.PageSize), mm.want.Read(pn<<mem.PageShift, mem.PageSize); !bytes.Equal(g, w) {
				return fmt.Sprintf("%s page %#x differs", mm.name, pn)
			}
			for a := pn << mem.PageShift; a < (pn+1)<<mem.PageShift; a += 64 {
				if !want.Ctrl.IsProtected(a) {
					continue
				}
				if g, w := got.Ctrl.Encryptor().Counter(a), want.Ctrl.Encryptor().Counter(a); g != w {
					return fmt.Sprintf("line %#x counter %d, want %d", a, g, w)
				}
				gl, gok := got.Ctrl.LeafIndex(a)
				wl, wok := want.Ctrl.LeafIndex(a)
				if gl != wl || gok != wok {
					return fmt.Sprintf("line %#x leaf %d %v, want %d %v", a, gl, gok, wl, wok)
				}
			}
		}
	}
	gt, wt := got.Ctrl.Tree(), want.Ctrl.Tree()
	if (gt == nil) != (wt == nil) {
		return "MAC tree present in one machine only"
	}
	if wt != nil {
		if gt.Levels() != wt.Levels() {
			return fmt.Sprintf("tree has %d levels, want %d", gt.Levels(), wt.Levels())
		}
		for l := 0; l < wt.Levels(); l++ {
			if gt.NodeCount(l) != wt.NodeCount(l) {
				return fmt.Sprintf("tree level %d has %d nodes, want %d", l, gt.NodeCount(l), wt.NodeCount(l))
			}
			for i := 0; i < wt.NodeCount(l); i++ {
				id := mactree.NodeID{Level: l, Index: i}
				if !bytes.Equal(gt.Node(id), wt.Node(id)) {
					return fmt.Sprintf("tree node %v differs", id)
				}
			}
		}
		if !bytes.Equal(gt.Root(), wt.Root()) {
			return "tree root differs"
		}
	}
	if g, w := got.LineStates(), want.LineStates(); g != w {
		return fmt.Sprintf("authentication state of %d L2 lines, want %d", g, w)
	}
	if g, w := got.Space.MappedPages(), want.Space.MappedPages(); g != w {
		return fmt.Sprintf("%d mapped pages, want %d", g, w)
	}
	for _, pn := range append(got.Memory.Pages(), got.Shadow.Pages()...) {
		if a := pn << mem.PageShift; got.Space.Valid(a) != want.Space.Valid(a) {
			return fmt.Sprintf("page %#x mapped %v, want %v", pn, got.Space.Valid(a), want.Space.Valid(a))
		}
	}
	return ""
}

// digestRanges are the windows of a run's ArchDigest: the data segment and
// the stack.
func digestRanges(m *sim.Machine) []interp.MemRange {
	return []interp.MemRange{
		{Start: m.Prog.DataBase, Len: uint64(len(m.Prog.Data))},
		{Start: sim.StackBase, Len: m.Cfg.StackB},
	}
}

// runOutcome is everything a run is compared on: the result, the bus
// trace, the architectural digest and the fast-path perf counters.
type runOutcome struct {
	res    sim.Result
	err    error
	trace  []bus.Event
	digest [32]byte
	perf   obs.Perf
}

func runAndRecord(m *sim.Machine) runOutcome {
	perf := m.EnablePerf()
	res, err := m.Run()
	return runOutcome{res: res, err: err, trace: slices.Clone(m.Bus.Trace()),
		digest: m.ArchDigest(digestRanges(m)...), perf: *perf}
}

func outcomeDiff(got, want runOutcome) string {
	switch {
	case !reflect.DeepEqual(got.res, want.res):
		return fmt.Sprintf("result %+v, want %+v", got.res, want.res)
	case fmt.Sprint(got.err) != fmt.Sprint(want.err):
		return fmt.Sprintf("run error %v, want %v", got.err, want.err)
	case !slices.Equal(got.trace, want.trace):
		return fmt.Sprintf("bus trace of %d transactions differs from the fresh machine's %d", len(got.trace), len(want.trace))
	case got.digest != want.digest:
		return "architectural digest differs"
	case got.perf != want.perf:
		return fmt.Sprintf("perf counters %+v, want %+v", got.perf, want.perf)
	}
	return ""
}

// A machine rebuilt in place after a run equals a machine built from zero
// for the same configuration, program and regions, bit for bit: its sealed
// state before Run, and the result, bus trace and architectural digest of
// the run. The multi-MB kernels are skipped under -short.
func TestReusedMachineEqualsFresh(t *testing.T) {
	specs := reuseSpecs(t, !testing.Short())
	m, err := sim.Fresh(specs[0].cfg, specs[0].p, specs[0].extra)
	if err != nil {
		t.Fatal(err)
	}
	runAndRecord(m)
	for i, s := range specs[1:] {
		// A run with an observer and the perf counters attached leaves both
		// behind; the rebuild must drop them.
		if i%2 == 0 {
			m.SetObserver(obs.NewHub(nil, true))
			m.EnablePerf()
		}
		if err := sim.Rebuild(m, s.cfg, s.p, s.extra); err != nil {
			t.Fatalf("%s after %s: rebuild: %v", s, specs[i], err)
		}
		fresh, err := sim.Fresh(s.cfg, s.p, s.extra)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if d := sealedDiff(m, fresh); d != "" {
			t.Fatalf("%s after %s: built state: %s", s, specs[i], d)
		}
		if d := outcomeDiff(runAndRecord(m), runAndRecord(fresh)); d != "" {
			t.Fatalf("%s after %s: run: %s", s, specs[i], d)
		}
	}
}

// tamper applies diffcheck's tamper at site to a built machine, as
// diffcheck.Check does before the run.
func tamper(tb testing.TB, m *sim.Machine, site diffcheck.TamperSite) {
	tb.Helper()
	p := m.Prog
	entryLine := p.Entry &^ 63
	switch site {
	case diffcheck.SiteData:
		m.Memory.XorRange(p.DataBase, []byte{0x40})
	case diffcheck.SiteMac:
		macAddr, ok := m.Ctrl.MacAddrOf(entryLine)
		if !ok {
			tb.Fatal("entry line has no flat MAC")
		}
		m.Ctrl.Memory().XorRange(macAddr, []byte{0x40})
	case diffcheck.SiteCtr:
		e := m.Ctrl.Encryptor()
		e.SetCounter(entryLine, e.Counter(entryLine)+1)
	case diffcheck.SiteTree:
		idx, ok := m.Ctrl.LeafIndex(entryLine)
		if !ok {
			tb.Fatal("entry line is not a protected leaf")
		}
		m.Ctrl.Tree().TamperNode(mactree.NodeID{Level: 0, Index: idx}, []byte{0x40})
	default:
		m.Memory.XorRange(p.Entry, []byte{0x40})
	}
}

// A tamper at every diffcheck site on a rebuilt machine gives the run a
// fresh machine gives — the same stop, fault, cycles, trace and digest —
// and never reaches the image memo: a machine built after the tampered run
// has the untampered image.
func TestReusedMachineTamperEqualsFresh(t *testing.T) {
	p := mustAssemble(t, diffcheck.GenProgram(4))
	other := mustAssemble(t, diffcheck.GenProgram(7))
	for _, site := range diffcheck.Sites() {
		for _, pt := range []policy.ControlPoint{policy.Baseline, policy.ThenCommit, policy.CommitPlusObfuscation} {
			where := fmt.Sprintf("site %s, %v", site, pt)
			cfg := sim.DefaultConfig()
			cfg.Policy = pt
			cfg.MaxInsts = 100_000
			cfg.TraceBus = true
			cfg.Sec.UseTree = site == diffcheck.SiteTree
			// The machine to rebuild ran another program in the other MAC
			// mode, with a probe window.
			prev := cfg
			prev.Sec.UseTree = !cfg.Sec.UseTree
			m, err := sim.Fresh(prev, other, probeWindow)
			if err != nil {
				t.Fatal(err)
			}
			runAndRecord(m)
			if err := sim.Rebuild(m, cfg, p, nil); err != nil {
				t.Fatal(err)
			}
			fresh, err := sim.Fresh(cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := sim.Fresh(cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			tamper(t, m, site)
			tamper(t, fresh, site)
			if d := outcomeDiff(runAndRecord(m), runAndRecord(fresh)); d != "" {
				t.Errorf("%s: %s", where, d)
			}
			after, err := sim.Fresh(cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := sealedDiff(after, clean); d != "" {
				t.Errorf("%s: machine built after the tampered runs: %s", where, d)
			}
		}
	}
}

// A Result taken before Release is unchanged after the machine is rebuilt
// and run again, its security fault included.
func TestResultSurvivesReuse(t *testing.T) {
	p := mustAssemble(t, diffcheck.GenProgram(2))
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	cfg.MaxInsts = 100_000
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	tamper(t, m, diffcheck.SiteEntry)
	res, _ := m.Run()
	if res.SecurityFault == nil {
		t.Fatalf("tampered run stopped with %v and no security fault", res.Reason)
	}
	saved, fault := res, *res.SecurityFault
	if err := sim.Rebuild(m, cfg, mustAssemble(t, diffcheck.GenProgram(3)), nil); err != nil {
		t.Fatal(err)
	}
	tamper(t, m, diffcheck.SiteEntry)
	if again, _ := m.Run(); again.SecurityFault == nil {
		t.Fatalf("second tampered run stopped with %v and no security fault", again.Reason)
	}
	if !reflect.DeepEqual(res, saved) || *res.SecurityFault != fault {
		t.Errorf("result changed after reuse: %+v (fault %+v), want %+v (fault %+v)", res, *res.SecurityFault, saved, fault)
	}
}

// Releasing a machine twice panics instead of pooling it twice, which would
// hand one machine to two builds.
func TestReleaseTwicePanics(t *testing.T) {
	m, err := sim.NewMachine(sim.DefaultConfig(), mustAssemble(t, diffcheck.GenProgram(8)))
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	m.Release()
}

// countingSink counts the events it receives.
type countingSink struct{ n int }

func (s *countingSink) Emit(obs.Event) { s.n++ }

// A rebuilt machine comes back with no observer and no perf block, on the
// fast path, and with no page or mapping of its previous program: its
// memories hold the pages a fresh build's hold, and the previous program's
// probe window is unmapped.
func TestRebuildDropsPreviousRun(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.CommitPlusObfuscation
	m, err := sim.Fresh(cfg, mustAssemble(t, diffcheck.GenProgram(5)), probeWindow)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	m.SetObserver(sink)
	m.EnablePerf()
	m.DisableFastPath()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.n == 0 {
		t.Fatal("observed run emitted no events")
	}
	p := mustAssemble(t, diffcheck.GenProgram(6))
	cfg.Policy = policy.ThenCommit
	if err := sim.Rebuild(m, cfg, p, nil); err != nil {
		t.Fatal(err)
	}
	if m.Observer() != nil || m.Perf() != nil || m.SlowPath() {
		t.Errorf("rebuilt machine: observer %v, perf %v, slow path %v; want none, none, false", m.Observer(), m.Perf(), m.SlowPath())
	}
	fresh, err := sim.Fresh(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := sealedDiff(m, fresh); d != "" {
		t.Errorf("rebuilt machine: %s", d)
	}
	if m.Space.Valid(probeWindow[0].Start) || m.Ctrl.IsProtected(probeWindow[0].Start) {
		t.Error("rebuilt machine still maps or protects the previous probe window")
	}
	n := sink.n
	got := runAndRecord(m)
	if sink.n != n {
		t.Errorf("rebuilt machine's run reached the previous run's observer %d times", sink.n-n)
	}
	if d := outcomeDiff(got, runAndRecord(fresh)); d != "" {
		t.Errorf("rebuilt machine's run: %s", d)
	}
}

// Machines built, run and released at once share the pool and the memos
// safely. Eight goroutines build two programs no other test builds, flat
// and with the MAC tree, so the image memo starts without their entries;
// every run must commit the state the in-order oracle reaches. Run it under
// -race.
func TestMachinePoolConcurrent(t *testing.T) {
	const workers, rounds = 8, 6
	progs := []*asm.Program{mustAssemble(t, diffcheck.GenProgram(90_001)), mustAssemble(t, diffcheck.GenProgram(90_002))}
	var want [2][32]byte
	for i, p := range progs {
		o := interp.New(p)
		if stop := o.Run(1_000_000); stop != interp.StopHalt {
			t.Fatalf("oracle stopped with %v", stop)
		}
		want[i] = o.StateDigest(
			interp.MemRange{Start: p.DataBase, Len: uint64(len(p.Data))},
			interp.MemRange{Start: sim.StackBase, Len: sim.DefaultConfig().StackB})
	}
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % 2
				cfg := sim.DefaultConfig()
				cfg.Policy = policy.ThenCommit
				cfg.Sec.UseTree = (g+r/2)%2 == 1
				m, err := sim.NewMachine(cfg, progs[i])
				if err != nil {
					errs <- err
					return
				}
				res, err := m.Run()
				d := m.ArchDigest(digestRanges(m)...)
				m.Release()
				switch {
				case err != nil:
					errs <- err
				case res.Reason != sim.StopHalt:
					errs <- fmt.Errorf("worker %d round %d: stopped with %v", g, r, res.Reason)
				case d != want[i]:
					errs <- fmt.Errorf("worker %d round %d: program %d committed a state the oracle did not", g, r, i)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
