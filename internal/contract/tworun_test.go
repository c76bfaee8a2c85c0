package contract

import (
	"context"
	"path/filepath"
	"testing"

	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
)

// kernelPolicies picks the policy set a kernel is swept over: the full
// 95-point lattice for fast kernels, a representative slice for the ones
// that run hundreds of thousands of cycles per check.
func kernelPolicies(kc KernelCase) []policy.ControlPoint {
	if kc.ObserveWatchdog || kc.Name == "memory-taint" {
		return []policy.ControlPoint{
			policy.Baseline, policy.AuthOnly, policy.ThenCommit,
			policy.CommitPlusFetch, policy.CommitPlusObfuscation,
		}
	}
	return policy.FullLattice()
}

// TestKernelLeaksLicensed is the tentpole pin: every attack kernel with a
// bus-observed leak gets verdict "licensed" under every non-obfuscating
// policy — the leak is real, and the static contract saw it coming. Under
// obfuscating policies the verdict must never be unsound (timing stays
// licensed), and the address channel must be gone from both the contract and
// the observation. Kernels whose leak channel the bus adversary cannot see
// (I/O ports, state contamination) must come back clean everywhere. Kernels
// whose bus leak is policy-dependent (the PAC kernels) must be exactly
// imprecise where the policy closes the channel: the static contract still
// licenses the address channel (taint flows through auth in every mode), but
// the machine shows no difference.
func TestKernelLeaksLicensed(t *testing.T) {
	cases, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, kc := range cases {
		// One preparation serves every policy of the case, as in authverify.
		k, err := PrepareKernel(kc)
		if err != nil {
			t.Errorf("%s: %v", kc.Name, err)
			continue
		}
		for _, pt := range kernelPolicies(kc) {
			res := k.Check(Options{Policy: pt})
			if res.Verdict == VerdictUnsound || res.Verdict == VerdictError {
				t.Errorf("%s under %v: verdict %s (%s)", kc.Name, pt, res.Verdict, res.Diff)
				continue
			}
			switch {
			case !kc.BusLeak && kc.BusLeakUnder == nil:
				if res.Verdict != VerdictClean {
					t.Errorf("%s under %v: verdict %s, want clean (leak channel %q is not bus-visible)",
						kc.Name, pt, res.Verdict, kc.Channel)
				}
			case !kc.LeaksUnder(pt):
				if res.Verdict != VerdictImprecise {
					t.Errorf("%s under %v: verdict %s, want imprecise (policy closes the bus channel, contract still licenses it)",
						kc.Name, pt, res.Verdict)
				}
			case !pt.Obfuscate:
				if res.Verdict != VerdictLicensed {
					t.Errorf("%s under %v: verdict %s, want licensed (%s)", kc.Name, pt, res.Verdict, res.Diff)
				}
			default:
				// Obfuscation may close the leak entirely (imprecise) or
				// leave a licensed timing residue; it must not add an
				// address observation.
				for _, ch := range res.Channels {
					if ch == ChannelAddr {
						t.Errorf("%s under %v: address difference observed under obfuscation: %s",
							kc.Name, pt, res.Diff)
					}
				}
				if res.Contract.Licenses(ChannelAddr) {
					t.Errorf("%s under %v: obfuscated contract licenses the address channel", kc.Name, pt)
				}
			}
		}
	}
}

// TestSweepNoUnsound is the non-interference sweep in miniature: generated
// programs across the full lattice must never produce an unsound verdict —
// the conservative static analysis licenses every observable difference the
// machine actually exhibits. CI runs the full-size version via authverify.
func TestSweepNoUnsound(t *testing.T) {
	seeds := make([]int64, 62)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	cells := PairCells(seeds, policy.FullLattice())
	results, findings, err := SweepObserved(context.Background(), cells, Options{}, 0, nil)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, f := range findings {
		t.Errorf("seed %d under %v: %s: %s", f.Result.Seed, f.Result.Policy, f.Result.Verdict, f.Result.Diff)
	}
	counts := map[Verdict]int{}
	for _, r := range results {
		counts[r.Verdict]++
	}
	if counts[VerdictLicensed] == 0 {
		t.Error("no seed produced a licensed verdict; the sweep exercises no real leaks")
	}
	if counts[VerdictClean]+counts[VerdictImprecise] == 0 {
		t.Error("no seed produced a clean/imprecise verdict; the sweep exercises no tight contracts")
	}
}

// TestCrossSweepDeterministic pins that the same cell checked twice yields
// identical results — the soundness argument rests on run determinism.
func TestCrossSweepDeterministic(t *testing.T) {
	cells := CrossCells([]int64{3, 7}, []policy.ControlPoint{policy.Baseline, policy.CommitPlusObfuscation})
	r1, _, err1 := SweepObserved(context.Background(), cells, Options{}, 2, nil)
	r2, _, err2 := SweepObserved(context.Background(), cells, Options{}, 1, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("sweep: %v / %v", err1, err2)
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.Verdict != b.Verdict || a.CyclesA != b.CyclesA || a.CyclesB != b.CyclesB || a.Diff != b.Diff {
			t.Errorf("cell %d not deterministic: %+v vs %+v", i, a, b)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	res := CheckProgram("_start:\n\thalt\n", Options{Policy: policy.ThenCommit})
	if res.Verdict != VerdictError {
		t.Errorf("program without secrets: verdict %s, want error", res.Verdict)
	}

	src := diffcheck.GenSecretProgram(1)
	res = CheckProgram(src, Options{Policy: policy.ThenCommit, SecretA: []byte{1, 2}, SecretB: []byte{1, 2}})
	if res.Verdict != VerdictError {
		t.Errorf("identical images: verdict %s, want error", res.Verdict)
	}

	res = CheckProgram("not a program @@", Options{Policy: policy.ThenCommit})
	if res.Verdict != VerdictError {
		t.Errorf("unassemblable source: verdict %s, want error", res.Verdict)
	}
}

func TestLeakRoundTrip(t *testing.T) {
	// Seed 9 is a licensed leak under baseline (secret-dependent scratch
	// address) — a stable recording target.
	res, src := CheckSeed(9, Options{Policy: policy.Baseline})
	if res.Verdict != VerdictLicensed {
		t.Fatalf("seed 9 under baseline: verdict %s, want licensed", res.Verdict)
	}
	l := NewLeak(res, src, "round-trip test")
	dec, err := DecodeLeak(l.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := dec.Replay(); err != nil {
		t.Fatalf("replay: %v", err)
	}

	path := filepath.Join(t.TempDir(), "seed9.leak")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLeak(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Replay(); err != nil {
		t.Fatalf("replay from disk: %v", err)
	}

	// A stale recording must be rejected, and the mismatch named.
	loaded.Verdict = string(VerdictUnsound)
	if _, err := loaded.Replay(); err == nil {
		t.Fatal("tampered recording replayed clean")
	}

	if _, err := DecodeLeak([]byte(`{"schema":"bogus/v9","source":"x"}`)); err == nil {
		t.Fatal("wrong schema decoded")
	}
}

// TestDiffViews exercises the channel classifier directly.
func TestDiffViews(t *testing.T) {
	base := View{Cycles: 100, Reason: "halt", Events: []ViewEvent{{Cycle: 1, Addr: 0x40, Done: 5}}}
	if chans, _ := DiffViews(base, base); len(chans) != 0 {
		t.Fatalf("identical views diff on %v", chans)
	}

	addr := base
	addr.Events = []ViewEvent{{Cycle: 1, Addr: 0x80, Done: 5}}
	chans, _ := DiffViews(base, addr)
	if len(chans) != 1 || chans[0] != ChannelAddr {
		t.Fatalf("address-only diff classified as %v", chans)
	}

	timing := base
	timing.Cycles = 101
	chans, _ = DiffViews(base, timing)
	if len(chans) != 1 || chans[0] != ChannelTiming {
		t.Fatalf("cycle-count diff classified as %v", chans)
	}

	both := View{Cycles: 90, Reason: "halt", Events: []ViewEvent{{Cycle: 2, Addr: 0x80, Done: 6}}}
	chans, _ = DiffViews(base, both)
	if len(chans) != 2 || chans[0] != ChannelAddr || chans[1] != ChannelTiming {
		t.Fatalf("combined diff classified as %v", chans)
	}
}
