package policy

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func TestCanonicalNames(t *testing.T) {
	want := map[string]ControlPoint{
		"baseline":                       Baseline,
		"authen-only":                    AuthOnly,
		"authen-then-issue":              ThenIssue,
		"authen-then-write":              ThenWrite,
		"authen-then-commit":             ThenCommit,
		"authen-then-fetch":              ThenFetch,
		"authen-then-commit+fetch":       CommitPlusFetch,
		"authen-then-commit+obfuscation": CommitPlusObfuscation,
		"authen-then-pac":                ThenPAC,
		"authen-then-fpac":               ThenFPAC,
	}
	for name, p := range want {
		if got := p.String(); got != name {
			t.Errorf("%v.String() = %q, want %q", p, got, name)
		}
		parsed, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
		} else if parsed != p {
			t.Errorf("Parse(%q) = %+v, want %+v", name, parsed, p)
		}
	}
}

func TestParseLegacyAliases(t *testing.T) {
	for name, want := range map[string]ControlPoint{
		"commit+fetch":       CommitPlusFetch,
		"commit+obfuscation": CommitPlusObfuscation,
		"then-commit":        ThenCommit,
		"then-write+fetch":   Compose(ThenWrite, ThenFetch),
		"fetch+commit":       CommitPlusFetch, // order-insensitive
		"commit+pac":         Compose(ThenCommit, ThenPAC),
		"pac+fpac":           ThenFPAC, // non-canonical spelling; fpac subsumes pac
	} {
		got, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
		} else if got != want {
			t.Errorf("Parse(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseUnknownListsRegistered(t *testing.T) {
	for _, bad := range []string{"", "authen-then-", "nonsense", "commit+nonsense", "commit+commit"} {
		_, err := Parse(bad)
		if err == nil {
			t.Errorf("Parse(%q) should fail", bad)
			continue
		}
		if !strings.Contains(err.Error(), "authen-then-commit") || !strings.Contains(err.Error(), "baseline") {
			t.Errorf("Parse(%q) error should list registered names: %v", bad, err)
		}
	}
}

// TestRoundTripFullLattice pins Parse(String(p)) == p over every point of
// the lattice, including all higher-order compositions and the pac/fpac
// dimensions.
func TestRoundTripFullLattice(t *testing.T) {
	pts := append([]ControlPoint{Baseline, AuthOnly}, FullLattice()...)
	if len(pts) != 97 {
		t.Fatalf("lattice size %d, want 97 (baseline + authen-only + 95 points: 31 gate subsets x {no pac, pac, fpac} + pac-only + fpac-only)", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		s := p.String()
		if seen[s] {
			t.Errorf("duplicate canonical name %q", s)
		}
		seen[s] = true
		got, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(String(%+v)=%q): %v", p, s, err)
		} else if got != p {
			t.Errorf("round trip %q: got %+v want %+v", s, got, p)
		}
	}
}

func TestMarshalTextRoundTrip(t *testing.T) {
	type box struct {
		P ControlPoint `json:"p"`
	}
	in := box{P: Compose(ThenIssue, CommitPlusObfuscation)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"authen-then-issue+commit+obfuscation"`) {
		t.Errorf("marshal: %s", b)
	}
	var out box
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.P != in.P {
		t.Errorf("unmarshal %+v != %+v", out.P, in.P)
	}
}

func TestCompose(t *testing.T) {
	if got := Compose(ThenCommit, ThenFetch); got != CommitPlusFetch {
		t.Errorf("commit∘fetch = %v", got)
	}
	if got := Compose(Baseline, ThenCommit); got != ThenCommit {
		t.Errorf("baseline∘commit = %v", got)
	}
	if got := Compose(ThenCommit, ThenCommit); got != ThenCommit {
		t.Errorf("compose not idempotent: %v", got)
	}
	// Commutative and associative over a 3-way combo.
	abc := Compose(ThenIssue, Compose(ThenWrite, ThenFetch))
	cba := Compose(Compose(ThenFetch, ThenWrite), ThenIssue)
	if abc != cba {
		t.Errorf("compose order-dependent: %v vs %v", abc, cba)
	}
	if abc.String() != "authen-then-issue+write+fetch" {
		t.Errorf("3-way name %q", abc.String())
	}
}

func TestNormalize(t *testing.T) {
	p := ControlPoint{GateCommit: true} // literal without Authenticate
	if !p.Normalize().Authenticate {
		t.Error("gate without Authenticate must normalize to authenticated")
	}
	if p.Normalize() != ThenCommit {
		t.Errorf("normalize: %v", p.Normalize())
	}
	if !Baseline.IsBaseline() || ThenCommit.IsBaseline() {
		t.Error("IsBaseline misclassifies")
	}
}

// TestKnobOrthogonality pins that every registered composition (and every
// lattice point) sets exactly the union of its components' knobs — no
// composition silently drops a knob (e.g. UseAtAuth) the way a hand-written
// switch case could.
func TestKnobOrthogonality(t *testing.T) {
	check := func(name string, p ControlPoint) {
		t.Helper()
		want := Knobs{Authenticate: p.Normalize().Authenticate}
		for _, comp := range p.Components() {
			single, err := Parse(comp)
			if err != nil {
				t.Fatalf("%s: component %q: %v", name, comp, err)
			}
			want = want.union(single.Knobs())
		}
		if got := p.Knobs(); got != want {
			t.Errorf("%s: knobs %+v != union of component knobs %+v", name, got, want)
		}
	}
	for _, e := range Registered() {
		check(e.Name, e.Point)
	}
	for _, p := range FullLattice() {
		check(p.String(), p)
	}
	// The issue gate must carry UseAtAuth through every composition.
	if k := Compose(ThenIssue, ThenFetch).Knobs(); !k.UseAtAuth {
		t.Error("issue+fetch dropped UseAtAuth")
	}
}

func TestLatticeShape(t *testing.T) {
	lat := Lattice()
	if len(lat) != 27 {
		t.Fatalf("lattice points %d, want 27 (7 singles + 21 pairs - pac∘fpac dup)", len(lat))
	}
	seen := map[ControlPoint]bool{}
	for _, p := range lat {
		if seen[p] {
			t.Errorf("duplicate lattice point %v", p)
		}
		seen[p] = true
		if p.IsBaseline() {
			t.Error("lattice must not contain the baseline")
		}
	}
	if !seen[CommitPlusFetch] || !seen[CommitPlusObfuscation] {
		t.Error("lattice missing the paper's combination points")
	}
	if !seen[ThenPAC] || !seen[ThenFPAC] || !seen[Compose(ThenCommit, ThenPAC)] {
		t.Error("lattice missing the pointer-authentication points")
	}
}

func TestPACNormalizeAndSubsume(t *testing.T) {
	if got := (ControlPoint{PACFault: true}).Normalize(); got != ThenFPAC {
		t.Errorf("normalize fpac literal: %+v", got)
	}
	if !ThenFPAC.Subsumes(ThenPAC) || ThenPAC.Subsumes(ThenFPAC) {
		t.Error("fpac must strictly subsume pac")
	}
	if got := Compose(ThenPAC, ThenFPAC); got != ThenFPAC {
		t.Errorf("pac∘fpac = %v, want fpac", got)
	}
	if s := ThenFPAC.String(); s != "authen-then-fpac" {
		t.Errorf("fpac name %q (components must not include pac)", s)
	}
	if s := Compose(CommitPlusFetch, ThenPAC).String(); s != "authen-then-commit+fetch+pac" {
		t.Errorf("composition name %q", s)
	}
	// PAC is orthogonal to every memory-integrity gate: composing it changes
	// no existing knob.
	k, base := Compose(ThenCommit, ThenPAC).Knobs(), ThenCommit.Knobs()
	k.PAC, k.PACFault = false, false
	if k != base {
		t.Errorf("pac composition disturbed gate knobs: %+v vs %+v", k, base)
	}
}

// TestGates pins the gate-set classes campaigns share outcomes in: the ci
// lattice's 27 points fall into 16 gate sets, each PAC point in the class
// of the point it composes with, and both lone PAC points in authen-only's,
// never the baseline's.
func TestGates(t *testing.T) {
	for _, c := range []struct{ p, want ControlPoint }{
		{Baseline, Baseline},
		{AuthOnly, AuthOnly},
		{ThenPAC, AuthOnly},
		{ThenFPAC, AuthOnly},
		{ControlPoint{PACFault: true}, AuthOnly},
		{Compose(ThenCommit, ThenPAC), ThenCommit},
		{Compose(CommitPlusObfuscation, ThenFPAC), CommitPlusObfuscation},
	} {
		if got := c.p.Gates(); got != c.want {
			t.Errorf("%v.Gates() = %v, want %v", c.p, got, c.want)
		}
	}
	classes := map[ControlPoint]bool{}
	for _, p := range Lattice() {
		classes[p.Gates()] = true
	}
	if len(classes) != 16 {
		t.Errorf("the lattice spans %d gate sets, want 16", len(classes))
	}
}

func TestParseSetPAC(t *testing.T) {
	pts, err := ParseSet("pac")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 4 {
		t.Fatalf("pac set has %d points", len(pts))
	}
	for _, p := range pts {
		if !p.PAC {
			t.Errorf("pac set contains non-PAC point %v", p)
		}
	}
	ci, err := ParseSet("ci")
	if err != nil {
		t.Fatal(err)
	}
	hasPAC := false
	for _, p := range ci {
		if p.PAC {
			hasPAC = true
		}
	}
	if !hasPAC {
		t.Error("ci set must cover the PAC dimension")
	}
}

// TestParseSetDuplicates: a list naming one point twice, under any
// spellings, is rejected with both spellings named; the named sets hold no
// point twice.
func TestParseSetDuplicates(t *testing.T) {
	for _, tc := range [][2]string{
		{"baseline", "baseline"},
		{"authen-then-commit", "then-commit"},
		{"authen-then-fpac", "authen-then-pac+fpac"},
	} {
		set := tc[0] + ", " + tc[1]
		_, err := ParseSet(set)
		if err == nil {
			t.Fatalf("%q accepted", set)
		}
		for _, name := range tc {
			if !strings.Contains(err.Error(), strconv.Quote(name)) {
				t.Errorf("%q: error %q does not name %q", set, err, name)
			}
		}
	}
	for _, set := range []string{"full", "lattice", "ci", "pac"} {
		pts, err := ParseSet(set)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range pts {
			if seen[p.String()] {
				t.Errorf("%s set holds %v twice", set, p)
			}
			seen[p.String()] = true
		}
	}
}

// fuzzSeeds are every registered name, the policy-set names, and a few
// compositions and lists.
func fuzzSeeds(f *testing.F) {
	for _, s := range append(Names(), "ci", "full", "pac", "lattice",
		"then-commit+fetch", "commit+obfuscation", "authen-then-", "issue+issue",
		"baseline,authen-only", "then-pac, then-fpac+pac", "write+fetch") {
		f.Add(s)
	}
}

// FuzzParse: Parse never panics, and an accepted name's canonical rendering
// parses back to the same point.
func FuzzParse(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %v, but its rendering %q does not parse: %v", s, p, p.String(), err)
		}
		if back.Normalize() != p.Normalize() {
			t.Fatalf("Parse(%q) = %+v, but Parse(%q) = %+v", s, p, p.String(), back)
		}
	})
}

// FuzzParseSet: ParseSet never panics, and an accepted set never names one
// point twice.
func FuzzParseSet(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, s string) {
		set, err := ParseSet(s)
		if err != nil {
			return
		}
		seen := map[ControlPoint]int{}
		for i, p := range set {
			if j, dup := seen[p.Normalize()]; dup {
				t.Fatalf("ParseSet(%q): points %d and %d are both %v", s, j, i, p)
			}
			seen[p.Normalize()] = i
		}
	})
}
