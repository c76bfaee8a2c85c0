package workload

import (
	"strings"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/pipeline"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

func TestCatalogShape(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("%d workloads, want 18", len(all))
	}
	if len(INT()) != 9 || len(FP()) != 9 {
		t.Fatalf("INT %d FP %d", len(INT()), len(FP()))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		if !strings.HasSuffix(w.Name, "x") {
			t.Errorf("workload %q should carry the synthetic-analogue suffix", w.Name)
		}
	}
	for _, w := range FP() {
		if !w.FP {
			t.Errorf("%s not marked FP", w.Name)
		}
	}
	if _, ok := ByName("mcfx"); !ok {
		t.Error("ByName(mcfx) failed")
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error("ByName(nosuch) succeeded")
	}
}

// TestAllNamesUnique pins the invariant the ByName index relies on: every
// catalog entry has a distinct name, and the index agrees with a linear
// scan of All() field for field.
func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Fatalf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		got, ok := ByName(w.Name)
		if !ok {
			t.Fatalf("ByName(%q) missing", w.Name)
		}
		if got != w {
			t.Errorf("ByName(%q) disagrees with All()", w.Name)
		}
	}
}

func TestAllWorkloadsAssemble(t *testing.T) {
	for _, w := range All() {
		if _, err := asm.Assemble(w.Source); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// Every kernel must run fault-free for a short instruction budget on the
// full machine and actually use its FP/memory character.
func TestAllWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := asm.Assemble(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig()
			cfg.Policy = policy.ThenCommit
			cfg.MaxInsts = 30_000
			m, err := sim.NewMachine(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Reason != sim.StopMaxInsts {
				k, pc, addr := m.Core.Faulted()
				t.Fatalf("stopped with %v (fault %v pc=%#x addr=%#x)", res.Reason, k, pc, addr)
			}
			if res.IPC <= 0 || res.IPC > 8 {
				t.Errorf("IPC %.3f out of range", res.IPC)
			}
			if w.MemBound && res.Sec.Fetches == 0 {
				t.Errorf("mem-bound kernel performed no external fetches")
			}
			_ = pipeline.FaultNone
		})
	}
}

// Memory-bound kernels must actually miss in the L2 during a measured
// window, otherwise the figures would be flat.
func TestMemBoundKernelsMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, w := range All() {
		if !w.MemBound {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := asm.Assemble(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig()
			cfg.MaxInsts = 60_000
			m, err := sim.NewMachine(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			_, _, l2 := m.MS.Caches()
			s := l2.Stats()
			missRate := float64(s.Misses) / float64(s.Hits+s.Misses)
			if s.Misses < 100 {
				t.Errorf("only %d L2 misses (rate %.3f)", s.Misses, missRate)
			}
		})
	}
}
