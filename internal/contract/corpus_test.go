package contract

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"authpoint/internal/attack"
	"authpoint/internal/policy"
)

var update = flag.Bool("update", false, "regenerate the checked-in leak corpus under testdata/")

// leakEntry pins one attack-kernel verdict as a .leak recording: the kernel's
// exact source, the policy point, both secret images, and the full outcome.
type leakEntry struct {
	file   string
	note   string
	kernel string
	pol    policy.ControlPoint
	// verdict is the expected outcome, double-checked at record time so a
	// drifted machine cannot silently re-record a different story.
	verdict Verdict
}

// leakEntries pins the PAC kernels at the lattice points where their story
// turns: detection working, detection defeated, and the auth-then-use race
// the fault-at-auth mode loses.
var leakEntries = []leakEntry{
	{
		file:    "pac-substitution-baseline.leak",
		note:    "forged cross-context pointer with PAC off: auth strips through and the substituted dereference is bus-visible — the leak the pac dimension closes",
		kernel:  "pac-pointer-substitution",
		pol:     policy.Baseline,
		verdict: VerdictLicensed,
	},
	{
		file:    "pac-substitution-then-pac.leak",
		note:    "same substitution under authen-then-pac: the poisoned pointer never reaches the bus; the contract still licenses the channel, so the verdict is imprecise, not clean",
		kernel:  "pac-pointer-substitution",
		pol:     policy.ThenPAC,
		verdict: VerdictImprecise,
	},
	{
		file:    "pac-substitution-commit-fpac.leak",
		note:    "substitution under commit+fpac: the commit gate stalls the failing auth behind the line-MAC verify, and the dependent load wins the race to the bus — fault-at-auth composed with a commit-site gate reopens the leak",
		kernel:  "pac-pointer-substitution",
		pol:     policy.Compose(policy.ThenCommit, policy.ThenFPAC),
		verdict: VerdictLicensed,
	},
	{
		file:    "pac-race-fpac.leak",
		note:    "auth-then-use race under authen-then-fpac: older divide chain holds the failing auth at the ROB head while its stripped result feeds a speculative load that reaches the bus — the unsound-by-design window of fault-at-auth",
		kernel:  "pac-auth-use-race",
		pol:     policy.ThenFPAC,
		verdict: VerdictLicensed,
	},
	{
		file:    "pac-race-then-pac.leak",
		note:    "same race under authen-then-pac: the poisoned result is rejected at translation, before any bus traffic — poisoning wins the race fault-at-auth loses",
		kernel:  "pac-auth-use-race",
		pol:     policy.ThenPAC,
		verdict: VerdictImprecise,
	},
	{
		file:    "pac-signing-gadget-fpac.leak",
		note:    "signing-gadget reuse under authen-then-fpac: the victim's own sign instruction legitimizes the forged pointer, so every auth-failure mode is defeated",
		kernel:  "pac-signing-gadget",
		pol:     policy.ThenFPAC,
		verdict: VerdictLicensed,
	},
}

func TestLeakCorpusUpToDate(t *testing.T) {
	cases, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]KernelCase{}
	for _, kc := range cases {
		byName[kc.Name] = kc
	}
	sources := attack.PACKernelSources()

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range leakEntries {
		kc, ok := byName[e.kernel]
		if !ok {
			t.Fatalf("%s: kernel %q not in catalog", e.file, e.kernel)
		}
		src, ok := sources[e.kernel]
		if !ok {
			t.Fatalf("%s: kernel %q has no exported source", e.file, e.kernel)
		}
		k, err := PrepareKernel(kc)
		if err != nil {
			t.Fatalf("%s: %v", e.file, err)
		}
		res := k.Check(Options{Policy: e.pol})
		if res.Verdict != e.verdict {
			t.Fatalf("%s: verdict %s, expected %s — machine drifted; review before re-recording", e.file, res.Verdict, e.verdict)
		}
		l := NewLeak(res, src, e.note)
		l.Probe = true
		l.SecretSymbols = kc.Analysis.SecretSymbols
		path := filepath.Join("testdata", e.file)
		if *update {
			if err := l.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s missing (run `go test -run TestLeakCorpusUpToDate -update ./internal/contract`): %v", path, err)
		}
		if string(want) != string(l.Encode()) {
			t.Errorf("%s is stale: model behaviour drifted from the recording (re-record with -update only if the drift is intended)", path)
		}
	}
}

// TestLeakCorpusReplay replays every checked-in leak recording byte-
// identically — the same path `authverify -replay <file>` takes.
func TestLeakCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.leak"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < len(leakEntries) {
		t.Fatalf("corpus has %d files, expected at least %d", len(files), len(leakEntries))
	}
	for _, f := range files {
		l, err := LoadLeak(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, err := l.Replay(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
