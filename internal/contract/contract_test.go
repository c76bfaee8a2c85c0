package contract

import (
	"fmt"
	"reflect"
	"testing"

	"authpoint/internal/analysis"
	"authpoint/internal/asm"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
	"authpoint/internal/workload"
)

// TestSubsumesImpliesContainment pins the lattice theorem: for every pair of
// control points with p.Subsumes(q), the contract under p is contained in
// the contract under q — strengthening the policy never licenses new
// observables. Checked across the full 95-point lattice on generated
// programs and on every attack kernel. The entries are the same under every
// point (TestDeriveOncePerProgram), so only the Obfuscate half can vary:
// adding obfuscation removes the address channel, and nothing adds it back.
func TestSubsumesImpliesContainment(t *testing.T) {
	full := policy.FullLattice()

	type prog struct {
		name string
		p    *asm.Program
		base analysis.Options
	}
	var progs []prog
	for seed := int64(1); seed <= 5; seed++ {
		p, err := asm.Assemble(diffcheck.GenSecretProgram(seed))
		if err != nil {
			t.Fatalf("seed %d does not assemble: %v", seed, err)
		}
		progs = append(progs, prog{name: fmt.Sprintf("seed-%d", seed), p: p})
	}
	cases, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, kc := range cases {
		progs = append(progs, prog{name: kc.Name, p: kc.Prog, base: kc.Analysis})
	}

	for _, pr := range progs {
		contracts := make([]*Contract, len(full))
		for i, pt := range full {
			c, err := Derive(pr.p, pt, pr.base)
			if err != nil {
				t.Fatalf("%s under %v: %v", pr.name, pt, err)
			}
			contracts[i] = c
		}
		for i, p := range full {
			for j, q := range full {
				if !p.Subsumes(q) {
					continue
				}
				if !contracts[i].SubsetOf(contracts[j]) {
					t.Errorf("%s: %v subsumes %v but contract [%s addr=%v] is not contained in [%s addr=%v]",
						pr.name, p, q,
						contracts[i].KindsSummary(), contracts[i].AddrVisible,
						contracts[j].KindsSummary(), contracts[j].AddrVisible)
				}
			}
		}
		// The entry set is policy-independent (gates change when leaks are
		// reachable, not which instructions touch secrets); only obfuscation
		// changes the licensed channels.
		for i, pt := range full {
			if got, want := contracts[i].KindsSummary(), contracts[0].KindsSummary(); got != want {
				t.Errorf("%s: entries under %v = [%s], want [%s] (policy-independent)", pr.name, pt, got, want)
			}
			if contracts[i].AddrVisible != !pt.Obfuscate {
				t.Errorf("%s: AddrVisible under %v = %v", pr.name, pt, contracts[i].AddrVisible)
			}
		}
	}
}

// TestObfuscationShrinksContract pins the tentpole claim that obfuscating
// policies shrink the contract: for every kernel with a bus-visible address
// leak, the obfuscated contract licenses strictly fewer channels.
func TestObfuscationShrinksContract(t *testing.T) {
	cases, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, kc := range cases {
		plain, err := Derive(kc.Prog, policy.ThenCommit, kc.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		obf, err := Derive(kc.Prog, policy.CommitPlusObfuscation, kc.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if obf.AddrVisible {
			t.Errorf("%s: obfuscated contract still has AddrVisible", kc.Name)
		}
		if obf.Licenses(ChannelAddr) {
			t.Errorf("%s: obfuscated contract licenses the address channel", kc.Name)
		}
		if plain.Empty() {
			continue
		}
		if !plain.Licenses(ChannelAddr) || !plain.Licenses(ChannelTiming) {
			t.Errorf("%s: non-obfuscated contract licenses %v, want both channels", kc.Name, plain.Channels())
		}
		if !obf.Licenses(ChannelTiming) {
			t.Errorf("%s: obfuscation dropped the timing channel; gates do not make latencies data-independent", kc.Name)
		}
	}
}

// TestGoldenKernelContracts pins the exact contract of every attack kernel.
// A change here means the static analysis sees the exploits differently —
// intentional or a regression, either way it must be reviewed.
func TestGoldenKernelContracts(t *testing.T) {
	want := map[string]string{
		"pointer-conversion":   "addr-leak=1 ctrl-leak=1",
		"binary-search":        "ctrl-leak=1",
		"disclosing-kernel":    "addr-leak=1",
		"io-port-disclosure":   "empty",
		"brute-force-page":     "addr-leak=1",
		"memory-taint":         "empty",
		"passive-control-flow": "ctrl-leak=8",
		// The PAC kernels: taint flows through auth regardless of mode, so
		// the forged-pointer dereference is an address leak under every
		// policy — only the dynamic observability varies (BusLeakUnder).
		"pac-pointer-substitution": "addr-leak=1",
		"pac-auth-use-race":        "addr-leak=1",
		"pac-signing-gadget":       "addr-leak=1",
	}
	cases, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(want) {
		t.Fatalf("catalog has %d kernels, goldens cover %d", len(cases), len(want))
	}
	for _, kc := range cases {
		c, err := Derive(kc.Prog, policy.Baseline, kc.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.KindsSummary(); got != want[kc.Name] {
			t.Errorf("%s: contract [%s], want [%s]", kc.Name, got, want[kc.Name])
		}
		if kc.BusLeak == c.Empty() {
			t.Errorf("%s: BusLeak=%v but contract empty=%v — catalog ground truth and analysis disagree",
				kc.Name, kc.BusLeak, c.Empty())
		}
	}
}

// TestGoldenWorkloadContracts pins the benchmark catalog as contract-clean:
// no workload declares secrets, so every contract is empty under every
// policy — the baseline against which the attack kernels' non-empty
// contracts are meaningful.
func TestGoldenWorkloadContracts(t *testing.T) {
	for _, w := range workload.All() {
		p, err := asm.Assemble(w.Source)
		if err != nil {
			t.Fatalf("%s does not assemble: %v", w.Name, err)
		}
		for _, pt := range []policy.ControlPoint{policy.Baseline, policy.CommitPlusObfuscation} {
			c, err := Derive(p, pt, analysis.Options{})
			if err != nil {
				t.Fatalf("%s under %v: %v", w.Name, pt, err)
			}
			if !c.Empty() {
				t.Errorf("%s under %v: contract [%s], want empty", w.Name, pt, c.KindsSummary())
			}
		}
	}
}

// policyEntries is the derivation Derive replaced: the taint analysis run
// under the policy's own contract knobs, its secret-tainted addr-leak and
// ctrl-leak findings kept.
func policyEntries(t *testing.T, p *asm.Program, pt policy.ControlPoint, base analysis.Options) ([]Entry, []analysis.Range) {
	t.Helper()
	rep, err := analysis.Analyze(p, analysis.OptionsForPolicy(pt, base))
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for _, f := range rep.Findings {
		if f.Taint.Secret() && (f.Kind == analysis.KindAddr || f.Kind == analysis.KindCtrl) {
			entries = append(entries, Entry{PC: f.PC, Kind: f.Kind, Sym: f.Sym, Line: f.Line})
		}
	}
	return entries, rep.SecretRanges
}

// TestDeriveOncePerProgram pins what lets a campaign derive each program's
// contract once: under every point of the full lattice, the analysis run
// with that policy's knobs finds exactly the entries and secret ranges of
// the policy-free derivation, for generated programs and for every attack
// kernel.
func TestDeriveOncePerProgram(t *testing.T) {
	type prog struct {
		name string
		p    *asm.Program
		base analysis.Options
	}
	var progs []prog
	for seed := int64(1); seed <= 20; seed++ {
		p, err := asm.Assemble(diffcheck.GenSecretProgram(seed))
		if err != nil {
			t.Fatalf("seed %d does not assemble: %v", seed, err)
		}
		progs = append(progs, prog{name: fmt.Sprintf("seed-%d", seed), p: p})
	}
	cases, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, kc := range cases {
		progs = append(progs, prog{name: kc.Name, p: kc.Prog, base: kc.Analysis})
	}
	nonEmpty := 0
	for _, pr := range progs {
		c, err := derive(pr.p, pr.base)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		if len(c.Entries) > 0 {
			nonEmpty++
		}
		for _, pt := range policy.FullLattice() {
			entries, ranges := policyEntries(t, pr.p, pt, pr.base)
			if !reflect.DeepEqual(entries, c.Entries) || !reflect.DeepEqual(ranges, c.SecretRanges) {
				t.Fatalf("%s under %v: entries %v ranges %v, policy-free derivation %v ranges %v",
					pr.name, pt, entries, ranges, c.Entries, c.SecretRanges)
			}
		}
	}
	if nonEmpty < len(progs)/2 {
		t.Fatalf("only %d of %d contracts have entries: the test lost its teeth", nonEmpty, len(progs))
	}
}
