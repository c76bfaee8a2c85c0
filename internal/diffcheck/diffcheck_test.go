package diffcheck

import (
	"context"
	"strings"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

func TestGenDeterministic(t *testing.T) {
	if GenProgram(7) != GenProgram(7) {
		t.Fatal("same seed produced different programs")
	}
	if GenProgram(7) == GenProgram(8) {
		t.Fatal("different seeds produced the same program")
	}
	if _, err := asm.Assemble(GenProgram(7)); err != nil {
		t.Fatalf("generated program does not assemble: %v", err)
	}
}

// TestEquivalenceAcrossLattice pair-sweeps seeds over the 15-point lattice:
// every policy is exercised, every seed checked once.
func TestEquivalenceAcrossLattice(t *testing.T) {
	pols := policy.Lattice()
	seeds := make([]int64, len(pols))
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	results, findings, err := SweepObserved(context.Background(), PairCells(seeds, pols, false), Options{}, 0, nil)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, f := range findings {
		t.Errorf("seed %d under %v: %s: %s", f.Result.Seed, f.Result.Policy, f.Result.Verdict, f.Result.Divergence)
	}
	for _, r := range results {
		if r.Verdict != VerdictOK {
			t.Errorf("seed %d under %v: verdict %s, want ok", r.Seed, r.Policy, r.Verdict)
		}
		if r.OracleDigest != r.SimDigest {
			t.Errorf("seed %d under %v: verdict ok but digests differ", r.Seed, r.Policy)
		}
	}
}

func TestTamperVerdicts(t *testing.T) {
	cases := []struct {
		pol  policy.ControlPoint
		want []Verdict // acceptable verdicts
	}{
		{policy.Baseline, []Verdict{VerdictUndetected}},
		{policy.ThenIssue, []Verdict{VerdictContained}},
		{policy.ThenCommit, []Verdict{VerdictContained}},
		{policy.Compose(policy.ThenIssue, policy.ThenCommit), []Verdict{VerdictContained}},
		// Weak points guarantee detection, not containment.
		{policy.ThenFetch, []Verdict{VerdictDetected, VerdictContained}},
		{policy.ThenWrite, []Verdict{VerdictDetected, VerdictContained}},
	}
	for _, c := range cases {
		res, _ := CheckSeed(3, Options{Policy: c.pol, Tamper: true})
		ok := false
		for _, w := range c.want {
			ok = ok || res.Verdict == w
		}
		if !ok {
			t.Errorf("tamper under %v: verdict %s (%s), want one of %v", c.pol, res.Verdict, res.Divergence, c.want)
		}
		if res.Verdict == VerdictContained && res.Insts != 0 {
			t.Errorf("tamper under %v: contained but %d insts committed", c.pol, res.Insts)
		}
	}
}

func TestMonotoneComparable(t *testing.T) {
	issueFetch := policy.Compose(policy.ThenIssue, policy.ThenFetch)
	cases := []struct {
		less, more policy.ControlPoint
		want       bool
	}{
		{policy.Baseline, policy.ThenIssue, true},
		{policy.Baseline, policy.ThenFetch, true},
		{policy.ThenIssue, issueFetch, true},
		{policy.ThenFetch, issueFetch, true},
		// Drain gates reorder store/commit traffic: not cycle-comparable.
		{policy.Baseline, policy.ThenWrite, false},
		{policy.Baseline, policy.ThenCommit, false},
		{policy.ThenWrite, policy.Compose(policy.ThenWrite, policy.ThenIssue), true},
		// Not a subset at all.
		{policy.ThenIssue, policy.ThenFetch, false},
	}
	for _, c := range cases {
		if got := MonotoneComparable(c.less, c.more); got != c.want {
			t.Errorf("MonotoneComparable(%v, %v) = %v, want %v", c.less, c.more, got, c.want)
		}
	}
}

func TestMonotoneHolds(t *testing.T) {
	for _, seed := range []int64{14, 38, 56} { // seeds that break the naive full-pairwise check
		results, viols := CheckMonotone(GenProgram(seed), policy.FullLattice(), Options{})
		for _, v := range viols {
			t.Errorf("seed %d: %s", seed, v)
		}
		for _, r := range results {
			if r.Verdict != VerdictOK {
				t.Errorf("seed %d under %v: verdict %s: %s", seed, r.Policy, r.Verdict, r.Divergence)
			}
		}
	}
}

// TestMinimizeShrinksFault injects an architectural fault into a generated
// program and shrinks it: the minimizer must keep the fault reproducing
// while stripping the generated bulk down to a handful of instructions.
func TestMinimizeShrinksFault(t *testing.T) {
	src := GenProgram(5)
	// A misaligned load: both machines fault on it, deterministically.
	src = strings.Replace(src, "\thalt", "\tlw r1, 3(r0)\n\thalt", 1)

	keep := func(s string) bool {
		r := Check(s, Options{WatchdogCycles: 50_000})
		return r.Verdict == VerdictOK && r.Reason == sim.StopArchFault.String()
	}
	if !keep(src) {
		t.Fatal("injected fault does not reproduce before minimization")
	}
	min := Minimize(src, keep)
	if !keep(min) {
		t.Fatal("minimized program no longer reproduces the fault")
	}
	before, after := countInsts(t, src), countInsts(t, min)
	if after > 2 { // the faulting lw and the protected halt
		t.Errorf("minimized program still has %d instructions:\n%s", after, min)
	}
	if after >= before {
		t.Errorf("minimizer removed nothing (%d -> %d instructions)", before, after)
	}
}

func countInsts(t *testing.T, src string) int {
	t.Helper()
	n := 0
	for _, ln := range strings.Split(src, "\n") {
		if asm.ClassifyLine(ln) == asm.LineInst {
			n++
		}
	}
	return n
}

func TestReproRoundTrip(t *testing.T) {
	res, src := CheckSeed(11, Options{Policy: policy.ThenCommit})
	if res.Verdict != VerdictOK {
		t.Fatalf("seed 11 under then-commit: %s: %s", res.Verdict, res.Divergence)
	}
	r := NewRepro(res, src, "round-trip test")

	dec, err := DecodeRepro(r.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if *dec != *r {
		t.Fatal("decode(encode) is not the identity")
	}

	path := t.TempDir() + "/t.repro"
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	loaded, err := LoadRepro(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := loaded.Replay(); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestReproReplayCatchesDrift(t *testing.T) {
	res, src := CheckSeed(11, Options{Policy: policy.ThenFetch})
	r := NewRepro(res, src, "")
	r.Cycles++ // simulate a recording that no longer matches the model
	if _, err := r.Replay(); err == nil {
		t.Fatal("replay accepted a repro with a wrong cycle count")
	} else if !strings.Contains(err.Error(), "cycles") {
		t.Fatalf("replay error does not name the drifted field: %v", err)
	}
}

func TestDecodeReproRejects(t *testing.T) {
	if _, err := DecodeRepro([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := DecodeRepro([]byte(`{"schema":"other/v9","source":"halt"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := DecodeRepro([]byte(`{"schema":"` + ReproSchema + `"}`)); err == nil {
		t.Error("empty source accepted")
	}
	// A site outside Sites() would replay as an entry tamper, and a site on
	// an untampered repro would be ignored: NewRepro writes neither.
	for _, body := range []string{
		`"tamper":true,"tamper_site":"bogus"`,
		`"tamper_site":"data"`,
		`"tamper":false,"tamper_site":"entry"`,
	} {
		if _, err := DecodeRepro([]byte(`{"schema":"` + ReproSchema + `","source":"halt",` + body + `}`)); err == nil {
			t.Errorf("repro with %s accepted", body)
		}
	}
	for _, site := range Sites() {
		body := `{"schema":"` + ReproSchema + `","source":"halt","tamper":true,"tamper_site":"` + string(site) + `"}`
		if _, err := DecodeRepro([]byte(body)); err != nil {
			t.Errorf("repro tampered at %s rejected: %v", site, err)
		}
	}
}

func TestSweepBudgetExpiry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // budget already spent: every cell must be skipped, not run
	cells := PairCells([]int64{1, 2, 3}, policy.Lattice(), false)
	results, findings, err := SweepObserved(ctx, cells, Options{}, 2, nil)
	if err == nil {
		t.Fatal("expired context did not surface")
	}
	if len(findings) != 0 {
		t.Fatalf("skipped cells produced %d findings", len(findings))
	}
	for i, r := range results {
		if r.Verdict != "" {
			t.Fatalf("cell %d ran despite expired budget: %v", i, r.Verdict)
		}
	}
}
