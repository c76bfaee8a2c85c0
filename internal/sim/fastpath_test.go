// Differential pins for the fast-path simulator core (µop cache +
// idle-cycle fast-forward): the fast path is an optimization of Machine.Run
// and must be cycle-identical to the per-cycle reference loop — same
// Result struct bit for bit, same architectural digest — on every program
// and every policy. External test package: imports diffcheck, which
// imports sim.
package sim_test

import (
	"fmt"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/diffcheck"
	"authpoint/internal/interp"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// runBoth executes p under cfg on the fast path and on the reference path
// (DisableFastPath) and returns both results and digests.
func runBoth(t *testing.T, cfg sim.Config, p *asm.Program) (fast, slow sim.Result, fastDig, slowDig [32]byte) {
	t.Helper()
	run := func(slowPath bool) (sim.Result, [32]byte) {
		m, err := sim.NewMachine(cfg, p)
		if err != nil {
			t.Fatalf("new machine: %v", err)
		}
		if slowPath {
			m.DisableFastPath()
		}
		res, runErr := m.Run()
		if runErr != nil && res.Reason != sim.StopWatchdog {
			t.Fatalf("run (slow=%v): %v", slowPath, runErr)
		}
		return res, m.ArchDigest(interp.MemRange{Start: p.DataBase, Len: uint64(len(p.Data))})
	}
	fast, fastDig = run(false)
	slow, slowDig = run(true)
	return
}

// TestFastSlowRandomPrograms drives generated programs through every
// ci-policy point on both paths: stop reason, cycle count, every stall
// counter, and the architectural digest must match exactly.
func TestFastSlowRandomPrograms(t *testing.T) {
	points, err := policy.ParseSet("ci")
	if err != nil {
		t.Fatal(err)
	}
	seeds := int64(50)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		p, err := asm.Assemble(diffcheck.GenProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		for _, pt := range points {
			cfg := sim.DefaultConfig()
			cfg.Policy = pt
			fast, slow, fd, sd := runBoth(t, cfg, p)
			if fast != slow {
				t.Errorf("seed %d under %v: result diverges\nfast %+v\nslow %+v", seed, pt, fast, slow)
			}
			if fd != sd {
				t.Errorf("seed %d under %v: arch digest diverges", seed, pt)
			}
		}
	}
}

// TestFastSlowWorkloads pins cycle identity on the real workload kernels
// across the full 95-point lattice.
func TestFastSlowWorkloads(t *testing.T) {
	points := policy.FullLattice()
	if testing.Short() {
		points = policy.Lattice()
	}
	for _, w := range workload.All()[:2] {
		p, err := asm.Assemble(w.Source)
		if err != nil {
			t.Fatalf("assemble %s: %v", w.Name, err)
		}
		for _, pt := range points {
			t.Run(fmt.Sprintf("%s/%v", w.Name, pt), func(t *testing.T) {
				cfg := sim.DefaultConfig()
				cfg.Policy = pt
				cfg.MaxInsts = 20_000
				fast, slow, fd, sd := runBoth(t, cfg, p)
				if fast != slow {
					t.Errorf("result diverges\nfast %+v\nslow %+v", fast, slow)
				}
				if fd != sd {
					t.Errorf("arch digest diverges")
				}
			})
		}
	}
}

// TestFastPathWatchdog pins the fast path's watchdog bookkeeping: a machine
// that goes permanently quiet (spin on an unmapped fetch target after the
// frontend faults) must stop with StopWatchdog at exactly the same cycle on
// both paths, exercising the skip cap at lastCommitCycle+WatchdogCycles.
func TestFastPathWatchdog(t *testing.T) {
	src := `
	_start:
		addi r1, r0, 1
		jalr r0, r0, 0   ; jump to unmapped 0: fetch faults, no redirect ever
	`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WatchdogCycles = 5_000
	run := func(slowPath bool) sim.Result {
		m, err := sim.NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if slowPath {
			m.DisableFastPath()
		}
		res, _ := m.Run()
		return res
	}
	fast, slow := run(false), run(true)
	if fast.Reason != sim.StopWatchdog {
		t.Fatalf("fast path: reason %v, want watchdog (res %+v)", fast.Reason, fast)
	}
	if fast != slow {
		t.Errorf("watchdog stop diverges\nfast %+v\nslow %+v", fast, slow)
	}
}
