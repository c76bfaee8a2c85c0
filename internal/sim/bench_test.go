package sim_test

import (
	"runtime"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/diffcheck"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// benchMachine builds a fresh machine on the first workload kernel with bus
// tracing off (the long-run configuration benchmarks care about).
func benchMachine(tb testing.TB, pt policy.ControlPoint, insts uint64, slow bool) *sim.Machine {
	return kernelMachine(tb, workload.All()[0], pt, insts, slow)
}

// kernelMachine is benchMachine on kernel w.
func kernelMachine(tb testing.TB, w workload.Workload, pt policy.ControlPoint, insts uint64, slow bool) *sim.Machine {
	tb.Helper()
	p, err := asm.Assemble(w.Source)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = pt
	cfg.MaxInsts = insts
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		tb.Fatal(err)
	}
	m.Bus.SetTracing(false)
	if slow {
		m.DisableFastPath()
	}
	return m
}

func benchRun(b *testing.B, pt policy.ControlPoint, slow bool) {
	const insts = 200_000
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchMachine(b, pt, insts, slow)
		b.StartTimer()
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	if cycles > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "host-ns/sim-cycle")
	}
}

// BenchmarkRunFast measures the fast-path simulator core end to end.
func BenchmarkRunFast(b *testing.B) { benchRun(b, policy.ThenCommit, false) }

// BenchmarkRunSlow measures the per-cycle reference loop on the same cell.
func BenchmarkRunSlow(b *testing.B) { benchRun(b, policy.ThenCommit, true) }

// BenchmarkRunBaselineFast measures the fast path without authentication,
// where idle windows are shortest and the µop cache dominates.
func BenchmarkRunBaselineFast(b *testing.B) { benchRun(b, policy.Baseline, false) }

// BenchmarkNewMachine measures machine set-up, which seals every protected
// line: a generated campaign program (about 1,060 lines, 1,024 of them its
// stack) and artx, a large Fig-12 image, each with flat per-line MACs and
// with the MAC tree. After its first iteration it times a warm build: the
// whole sealed image is a hit in the image memo, copied rather than
// encrypted and MACed (see secmem.Controller.FinishProtection). The fresh
// variants build every machine from zero; the released ones release each
// machine, so the next build rebuilds it in place, as a campaign's next
// cell does.
func BenchmarkNewMachine(b *testing.B) {
	art, ok := workload.ByName("artx")
	if !ok {
		b.Fatal("workload artx missing")
	}
	for _, prog := range []struct{ name, src string }{
		{"gen1", diffcheck.GenProgram(1)},
		{"artx", art.Source},
	} {
		p, err := asm.Assemble(prog.src)
		if err != nil {
			b.Fatal(err)
		}
		for _, mac := range []struct {
			name string
			tree bool
		}{{"flat", false}, {"tree", true}} {
			for _, release := range []bool{false, true} {
				name := prog.name + "/" + mac.name + "/fresh"
				if release {
					name = prog.name + "/" + mac.name + "/released"
				}
				b.Run(name, func(b *testing.B) {
					cfg := sim.DefaultConfig()
					cfg.Sec.UseTree = mac.tree
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						m, err := sim.NewMachine(cfg, p)
						if err != nil {
							b.Fatal(err)
						}
						if release {
							m.Release()
						}
					}
				})
			}
		}
	}
}

// TestNewMachineAllocs pins machine set-up at a few allocations per
// structure rather than per cache set or per protected line: carved cache
// set arrays, flat TLB tables, leaf indices derived from the protected
// ranges, the counter table in 64-line blocks and leaf-indexed re-map
// slots. A build of a generated campaign program takes 160 to 180
// allocations under these configurations, about 20 of them the standard
// library's HMAC and AES key states; one allocation per set or per line
// would take thousands. The count does not depend on the hardware.
func TestNewMachineAllocs(t *testing.T) {
	p, err := asm.Assemble(diffcheck.GenProgram(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pt   policy.ControlPoint
		tree bool
	}{
		{"baseline/flat", policy.Baseline, false},
		{"commit+obfuscation/flat", policy.CommitPlusObfuscation, false},
		{"then-commit/tree", policy.ThenCommit, true},
	} {
		cfg := sim.DefaultConfig()
		cfg.Policy = c.pt
		cfg.Sec.UseTree = c.tree
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := sim.NewMachine(cfg, p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per build", c.name, allocs)
		if allocs > 300 {
			t.Errorf("%s: NewMachine made %.0f allocations, want at most 300", c.name, allocs)
		}
	}
}

// TestRebuildAllocs pins the rebuild of a released machine at a handful of
// allocations: every component keeps its storage and the sealed image is
// copied from the memo. Each case alternates two builds of one layout, so
// the memo holds both images: the same program under another policy, as in
// a campaign's next cell, and another program of the same size, as in a
// contract check's second run, which differs only in its data. Both
// measure 1 allocation per build, the text image asm.Program.TextBytes
// returns; one per cache set or protected line would take thousands, and a
// component rebuilt from scratch tens.
func TestRebuildAllocs(t *testing.T) {
	p, err := asm.Assemble(diffcheck.GenProgram(1))
	if err != nil {
		t.Fatal(err)
	}
	q := *p
	q.Data = append([]byte(nil), p.Data...)
	q.Data[0] ^= 0xff
	m, err := sim.NewMachine(sim.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		progs  [2]*asm.Program
		points [2]policy.ControlPoint
	}{
		{"same program, other policy", [2]*asm.Program{p, p}, [2]policy.ControlPoint{policy.Baseline, policy.CommitPlusObfuscation}},
		{"other program, same size", [2]*asm.Program{p, &q}, [2]policy.ControlPoint{policy.ThenCommit, policy.ThenCommit}},
	} {
		for k, prog := range c.progs {
			cfg := sim.DefaultConfig()
			cfg.Policy = c.points[k]
			if err := sim.Rebuild(m, cfg, prog, nil); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(10, func() {
			cfg := sim.DefaultConfig()
			cfg.Policy = c.points[i%2]
			if err := sim.Rebuild(m, cfg, c.progs[i%2], nil); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %.0f allocations per rebuild", c.name, allocs)
		if allocs > 5 {
			t.Errorf("%s: a rebuild made %.0f allocations, want at most 5", c.name, allocs)
		}
	}
}

// TestRunSteadyStateAllocs pins the zero-alloc hot loop: once a machine is
// warm (caches filled, rings and queues at steady occupancy), continuing the
// run must not allocate per cycle or per instruction. It runs a
// cache-resident kernel (bzip2x) and a memory-bound one (mcfx, whose caches
// evict a line every instruction or so). The small budget tolerates what
// still grows on a warm machine — the authentication queue's slices — a few
// dozen allocations. Per-cycle allocation would show up as hundreds of thousands,
// and one allocation per line decrypted, MACed or evicted as hundreds on
// bzip2x and hundreds of thousands on mcfx.
func TestRunSteadyStateAllocs(t *testing.T) { steadyStateAllocs(t, false) }

// TestRunSteadyStateAllocsObserved is the same pin with the observability
// surface attached — metrics hub on every component plus the fast-path perf
// counters. Counting is plain field increments and the hub's outstanding-auth
// FIFO reuses its backing array, so observing a warm machine must stay
// allocation-free too.
func TestRunSteadyStateAllocsObserved(t *testing.T) { steadyStateAllocs(t, true) }

func steadyStateAllocs(t *testing.T, observed bool) {
	for _, name := range []string{"bzip2x", "mcfx"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no kernel %s", name)
		}
		m := kernelMachine(t, w, policy.ThenCommit, 50_000, false)
		if observed {
			m.SetObserver(obs.NewHub(nil, true))
			m.EnablePerf()
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m.Cfg.MaxInsts = 250_000
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if res.Reason != sim.StopMaxInsts {
			t.Fatalf("%s: run stopped with %v, want max-insts (res %+v)", name, res.Reason, res)
		}
		allocs := after.Mallocs - before.Mallocs
		t.Logf("%s: steady-state allocs over 200k insts: %d", name, allocs)
		if allocs > 300 {
			t.Errorf("%s: steady-state Run allocated %d times over 200k instructions; hot loop must be allocation-free", name, allocs)
		}
	}
}
