package analysis_test

import (
	"fmt"
	"testing"

	"authpoint/internal/analysis"
	"authpoint/internal/attack"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// This file is the soundness half of the differential contract between the
// static analysis and the cycle-level simulator: every leak an adversary
// actually observes on the bus in a baseline-policy run of an exploit's
// effective program must be covered by an authlint finding of the matching
// kind — and, where the victim's symbols let us locate the leak, by a
// finding at the leaking site itself. (The precision half — data-oblivious
// workloads lint clean — lives in the golden test.)

// runBaseline executes a kernel's effective program on an ungated machine
// with the bus trace on, exactly as the dynamic exploits do.
func runBaseline(t *testing.T, k attack.Kernel) (*sim.Machine, sim.Result) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.Baseline
	cfg.TraceBus = true
	cfg.WatchdogCycles = 200_000
	var regions []sim.Region
	if k.NeedsProbe {
		regions = append(regions, sim.Region{Start: attack.ProbeBase, Size: attack.ProbeSize})
	}
	m, err := sim.NewMachineWithRegions(cfg, k.Prog, regions)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	// The run may end in a watchdog or fault (spliced kernels fall off the
	// victim's text); the bus trace up to the stop is still the adversary's
	// observation, exactly as the dynamic exploits treat it.
	res, _ := m.Run()
	return m, res
}

func analyzeKernel(t *testing.T, k attack.Kernel, opts analysis.Options) *analysis.Report {
	t.Helper()
	rep, err := analysis.Analyze(k.Prog, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

func kernelByName(t *testing.T, name string) attack.Kernel {
	t.Helper()
	ks, err := attack.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("no kernel %q", name)
	return attack.Kernel{}
}

// findingIn reports whether some finding of the kind lies in [lo, hi).
func findingIn(rep *analysis.Report, kind analysis.Kind, lo, hi uint64) bool {
	for _, f := range rep.ByKind(kind) {
		if f.PC >= lo && f.PC < hi {
			return true
		}
	}
	return false
}

// TestDiffPointerConversion: the converted-pointer dereference puts the
// secret's line on the bus; the static addr-leak must sit on the walk loop's
// load.
func TestDiffPointerConversion(t *testing.T) {
	k := kernelByName(t, "pointer-conversion")
	m, res := runBaseline(t, k)
	leaks := m.ReadLineAddrsInBefore(attack.ProbeBase, attack.ProbeBase+attack.ProbeSize, sim.StopCycle(res))
	if len(leaks) == 0 {
		t.Fatal("baseline run leaked nothing; the effective program is wrong")
	}
	rep := analyzeKernel(t, k, analysis.Options{})
	if !findingIn(rep, analysis.KindAddr, k.Prog.Symbols["walk"], k.Prog.Symbols["done"]) {
		t.Errorf("dynamic leak %#x not covered by an addr-leak in the walk loop: %v", leaks[0], rep.Findings)
	}
}

// TestDiffBinarySearch: the taken arm's I-line appearing on the bus is the
// leak; the covering finding is the ctrl-leak whose branch targets it.
func TestDiffBinarySearch(t *testing.T) {
	k := kernelByName(t, "binary-search")
	m, res := runBaseline(t, k)
	below := k.Prog.Symbols["below"]
	seen := m.ReadLineAddrsInBefore(below&^63, below&^63+64, sim.StopCycle(res))
	if len(seen) == 0 {
		t.Fatal("taken arm never fetched; the tampered constant should make the branch go below")
	}
	rep := analyzeKernel(t, k, analysis.Options{})
	covered := false
	for _, f := range rep.ByKind(analysis.KindCtrl) {
		if f.Target == below {
			covered = true
		}
	}
	if !covered {
		t.Errorf("observed taken-arm fetch %#x has no ctrl-leak targeting below: %v", seen[0], rep.Findings)
	}
}

// TestDiffDisclosingKernel: the probe fetch carrying secret bits must be
// covered by a Secret-tainted addr-leak inside the spliced kernel.
func TestDiffDisclosingKernel(t *testing.T) {
	k := kernelByName(t, "disclosing-kernel")
	m, res := runBaseline(t, k)
	leaks := m.ReadLineAddrsInBefore(attack.ProbeBase, attack.ProbeBase+attack.ProbeSize, sim.StopCycle(res))
	if len(leaks) == 0 {
		t.Fatal("spliced kernel leaked nothing on baseline")
	}
	rep := analyzeKernel(t, k, analysis.Options{})
	f0 := k.Prog.Symbols["f"]
	spliceEnd := f0 + 13*4 // the injected kernel is 13 words
	if !findingIn(rep, analysis.KindAddr, f0, spliceEnd) {
		t.Errorf("dynamic probe leak %#x not covered inside the splice [%#x,%#x): %v",
			leaks[0], f0, spliceEnd, rep.Findings)
	}
	for _, f := range rep.ByKind(analysis.KindAddr) {
		if f.PC >= f0 && f.PC < spliceEnd && !f.Taint.Secret() {
			t.Errorf("probe-load finding %v should carry Secret taint", f)
		}
	}
}

// TestDiffIOPortDisclosure: the OUT of the secret must be covered by an
// io-leak finding.
func TestDiffIOPortDisclosure(t *testing.T) {
	k := kernelByName(t, "io-port-disclosure")
	m, _ := runBaseline(t, k)
	leaked := false
	for _, e := range m.Core.OutLog() {
		if e.Port == 0x80 {
			leaked = true
		}
	}
	if !leaked {
		t.Fatal("baseline run never reached the OUT")
	}
	rep := analyzeKernel(t, k, analysis.Options{})
	if len(rep.ByKind(analysis.KindIO)) == 0 {
		t.Errorf("dynamic OUT disclosure has no io-leak finding: %v", rep.Findings)
	}
}

// TestDiffBruteForcePage: the dereference of the repointed pointer is
// observable in the probe window and must be covered by an addr-leak.
func TestDiffBruteForcePage(t *testing.T) {
	k := kernelByName(t, "brute-force-page")
	m, res := runBaseline(t, k)
	leaks := m.ReadLineAddrsInBefore(attack.ProbeBase, attack.ProbeBase+attack.ProbeSize, sim.StopCycle(res))
	if len(leaks) == 0 {
		t.Fatal("repointed dereference left no probe-window trace")
	}
	rep := analyzeKernel(t, k, analysis.Options{})
	if len(rep.ByKind(analysis.KindAddr)) == 0 {
		t.Errorf("dynamic leak %#x has no addr-leak finding: %v", leaks[0], rep.Findings)
	}
}

// TestDiffPassiveControlFlow: every secret bit observed through a taken-arm
// instruction fetch must be covered by a ctrl-leak finding whose branch
// targets that arm — per-address coverage, not just per-kind.
func TestDiffPassiveControlFlow(t *testing.T) {
	k := kernelByName(t, "passive-control-flow")
	m, res := runBaseline(t, k)
	if res.Reason != sim.StopHalt {
		t.Fatalf("passive victim stopped with %v", res.Reason)
	}
	seen := map[uint64]bool{}
	for _, a := range m.ReadLineAddrsBefore(sim.StopCycle(res)) {
		seen[a] = true
	}
	rep := analyzeKernel(t, k, analysis.Options{})
	targets := map[uint64]bool{}
	for _, f := range rep.ByKind(analysis.KindCtrl) {
		targets[f.Target] = true
	}
	observedArms := 0
	for bit := 0; bit < 8; bit++ {
		arm := k.Prog.Symbols[fmt.Sprintf("one_%d", bit)]
		if !seen[arm&^63] {
			continue // bit clear: arm never fetched
		}
		observedArms++
		if !targets[arm] {
			t.Errorf("observed taken arm one_%d (%#x) has no ctrl-leak targeting it", bit, arm)
		}
	}
	// The passive secret 0xA7 has five set bits; the trace must show them.
	if observedArms != 5 {
		t.Errorf("observed %d taken arms, want 5 (secret 0xA7)", observedArms)
	}
}

// TestDiffMemoryTaint: the dynamic attack plants a tampered-derived value in
// external memory on baseline; statically that is the state-taint channel,
// visible only with StateChecks.
func TestDiffMemoryTaint(t *testing.T) {
	out, err := attack.MemoryTaint(policy.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Leaked {
		t.Fatal("memory-taint attack did not land on baseline")
	}
	k := kernelByName(t, "memory-taint")
	if rep := analyzeKernel(t, k, analysis.Options{}); !rep.Clean() {
		t.Errorf("memory-taint should be clean without StateChecks, got %v", rep.Findings)
	}
	rep := analyzeKernel(t, k, analysis.Options{StateChecks: true})
	st := rep.ByKind(analysis.KindState)
	if len(st) == 0 {
		t.Fatalf("StateChecks found no state-taint store: %v", rep.Findings)
	}
	for _, f := range st {
		if !f.Taint.Unverified() {
			t.Errorf("state-taint %v should be Unverified", f)
		}
	}
}
