// Differential tests for the timed machine, built on internal/diffcheck —
// the reusable promotion of the generator and comparator that used to live
// here. External test package: diffcheck imports sim, so these tests must
// sit outside the sim package to avoid an import cycle.
package sim_test

import (
	"fmt"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/diffcheck"
	"authpoint/internal/interp"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

func checkSeed(t *testing.T, seed int64, opt diffcheck.Options) {
	t.Helper()
	res, src := diffcheck.CheckSeed(seed, opt)
	if res.Verdict != diffcheck.VerdictOK {
		t.Errorf("seed %d under %v: %s: %s\nprogram:\n%s",
			seed, res.Policy, res.Verdict, res.Divergence, src)
	}
}

// TestDifferentialVsOracle runs random programs on the full out-of-order
// machine and on the in-order functional oracle: every architectural
// outcome must match exactly. This is the core correctness net for the
// pipeline (renaming, forwarding, disambiguation, squash, FP).
func TestDifferentialVsOracle(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 6
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkSeed(t, seed, diffcheck.Options{Policy: policy.ThenCommit})
		})
	}
}

// The same programs must be architecture-identical under every control
// point: authentication gates change timing, never semantics.
func TestDifferentialAcrossSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	points := []policy.ControlPoint{
		policy.Baseline,
		policy.ThenIssue,
		policy.ThenWrite,
		policy.CommitPlusFetch,
		policy.CommitPlusObfuscation,
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.String(), func(t *testing.T) {
			for seed := int64(100); seed < 105; seed++ {
				checkSeed(t, seed, diffcheck.Options{Policy: pt})
			}
		})
	}
}

// Functional correctness with the next-line prefetcher on: prefetch changes
// miss timing only, never architectural state. Each program must halt with
// the oracle's instruction count and state digest over the data segment and
// stack.
func TestDifferentialWithPrefetch(t *testing.T) {
	for seed := int64(200); seed < 206; seed++ {
		p := asm.MustAssemble(diffcheck.GenProgram(seed))
		cfg := sim.DefaultConfig()
		cfg.Mem.NextLinePrefetch = true
		var ranges []interp.MemRange
		if len(p.Data) > 0 {
			ranges = append(ranges, interp.MemRange{Start: p.DataBase, Len: uint64(len(p.Data))})
		}
		ranges = append(ranges, interp.MemRange{Start: sim.StackBase, Len: cfg.StackB})

		o := interp.New(p)
		if stop := o.Run(diffcheck.DefaultMaxOracleInsts); stop != interp.StopHalt {
			t.Fatalf("seed %d: oracle stopped with %v, want a halt", seed, stop)
		}
		m, err := sim.NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil || res.Reason != sim.StopHalt || res.Insts != o.Insts {
			t.Errorf("seed %d: core stopped with %v (%v) after %d insts, oracle halted after %d",
				seed, res.Reason, err, res.Insts, o.Insts)
		}
		if got, want := m.ArchDigest(ranges...), o.StateDigest(ranges...); got != want {
			t.Errorf("seed %d: state digest %x, oracle %x", seed, got, want)
		}
		if m.MS.Prefetches == 0 {
			t.Errorf("seed %d: the prefetcher never fetched", seed)
		}
		m.Release()
	}
}
