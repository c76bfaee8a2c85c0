// Package policy defines authentication control points as first-class,
// composable values. The paper evaluates seven fixed design points; its
// actual contribution is the *space* those points are drawn from — where in
// the machine completed integrity verification must gate forward progress.
// This package spans that space with orthogonal gate dimensions so any
// lattice point (then-write+fetch, then-issue+obfuscation, every 3-way
// combo) is expressible without touching the simulator:
//
//	GateIssue   — verification gates instruction issue and operand use
//	GateWrite   — committed stores wait for their authentication tag
//	GateCommit  — verification gates instruction retirement
//	GateFetch   — new external fetches wait for the auth queue
//	Obfuscate   — HIDE-style address obfuscation (re-map cache)
//	PAC         — pointer authentication; failed auth poisons the pointer
//	              (fault at next use/translation)
//	PACFault    — FPAC refinement of PAC: failed auth faults at the auth
//	              instruction itself (subsumes PAC)
//
// plus Authenticate=false for the decrypt-only normalization baseline (the
// zero ControlPoint). Canonical points live in a fixed table of names;
// Parse additionally accepts any composition spelled from the gate grammar
// ("authen-then-commit+fetch", "then-write+fetch", "commit+obfuscation").
package policy

import (
	"fmt"
	"sort"
	"strings"
)

// ControlPoint is one point of the authentication control-point lattice:
// a set of orthogonal gate dimensions. The zero value is the decrypt-only
// baseline. ControlPoint is a comparable value type — equal gate sets are
// the same control point, wherever they came from.
type ControlPoint struct {
	// Authenticate enables integrity verification at all. False only for
	// the baseline: every gate implies verification (see Normalize).
	Authenticate bool
	// GateIssue: an instruction may not issue, nor its loaded operands be
	// used, before the lines they came from verified (authen-then-issue).
	GateIssue bool
	// GateWrite: committed stores drain to memory only after their
	// authentication tag clears (authen-then-write).
	GateWrite bool
	// GateCommit: the RUU head may not retire before its instruction and
	// operand lines verified (authen-then-commit).
	GateCommit bool
	// GateFetch: a new external fetch may not be granted before the
	// verification requests outstanding at its creation drained
	// (authen-then-fetch).
	GateFetch bool
	// Obfuscate: HIDE-style address obfuscation via the re-map cache.
	Obfuscate bool
	// PAC enables the pointer-authentication instructions' check: a failed
	// auth yields a poisoned pointer that faults at its next use
	// (fault-at-translation). Orthogonal to the memory-integrity gates —
	// PAC checks provenance of pointer *values*, not of fetched lines.
	PAC bool
	// PACFault is the FPAC refinement: a failed auth faults architecturally
	// at the auth instruction. Implies PAC (see Normalize); the pair
	// "pac+fpac" is not a distinct point.
	PACFault bool
}

// Predefined lattice points: the paper's seven plus detection-only.
var (
	// Baseline is decryption only — the zero ControlPoint.
	Baseline = ControlPoint{}
	// AuthOnly verifies every line but gates nothing: tampering is
	// detected (eventually) while execution runs ahead unchecked.
	AuthOnly = ControlPoint{Authenticate: true}
	// ThenIssue is authen-then-issue.
	ThenIssue = ControlPoint{Authenticate: true, GateIssue: true}
	// ThenWrite is authen-then-write.
	ThenWrite = ControlPoint{Authenticate: true, GateWrite: true}
	// ThenCommit is authen-then-commit.
	ThenCommit = ControlPoint{Authenticate: true, GateCommit: true}
	// ThenFetch is authen-then-fetch.
	ThenFetch = ControlPoint{Authenticate: true, GateFetch: true}
	// CommitPlusFetch is the paper's recommended secure-and-fast point.
	CommitPlusFetch = ControlPoint{Authenticate: true, GateCommit: true, GateFetch: true}
	// CommitPlusObfuscation closes the passive address channel on top of
	// then-commit.
	CommitPlusObfuscation = ControlPoint{Authenticate: true, GateCommit: true, Obfuscate: true}
	// ThenPAC enables pointer authentication in poison mode: a failed auth
	// faults at the pointer's next use.
	ThenPAC = ControlPoint{Authenticate: true, PAC: true}
	// ThenFPAC is FPAC-style pointer authentication: a failed auth faults
	// at the auth instruction itself.
	ThenFPAC = ControlPoint{Authenticate: true, PAC: true, PACFault: true}
)

// Compose returns the join of two lattice points: the union of their gates.
// Composing anything with the baseline returns the other point.
func Compose(a, b ControlPoint) ControlPoint {
	return ControlPoint{
		Authenticate: a.Authenticate || b.Authenticate,
		GateIssue:    a.GateIssue || b.GateIssue,
		GateWrite:    a.GateWrite || b.GateWrite,
		GateCommit:   a.GateCommit || b.GateCommit,
		GateFetch:    a.GateFetch || b.GateFetch,
		Obfuscate:    a.Obfuscate || b.Obfuscate,
		PAC:          a.PAC || b.PAC,
		PACFault:     a.PACFault || b.PACFault,
	}
}

// Normalize returns the point with the Authenticate invariant restored: any
// gate (or obfuscation) implies verification. Hand-built literals that set a
// gate without Authenticate mean the gated point, not a machine that stalls
// on verifications that never run.
func (p ControlPoint) Normalize() ControlPoint {
	if p.PACFault {
		p.PAC = true
	}
	if p.GateIssue || p.GateWrite || p.GateCommit || p.GateFetch || p.Obfuscate || p.PAC {
		p.Authenticate = true
	}
	return p
}

// Gates returns the point's memory-integrity gate set: the point
// normalized, with its pointer-authentication dimensions cleared. A PAC
// point keeps the Authenticate that Normalize gave it, so authen-then-pac
// and authen-then-fpac share authen-only's gate set, not the baseline's.
// Points with one gate set differ only in what a failing pointer auth does.
func (p ControlPoint) Gates() ControlPoint {
	p = p.Normalize()
	p.PAC, p.PACFault = false, false
	return p
}

// IsBaseline reports whether the point is the decrypt-only baseline.
func (p ControlPoint) IsBaseline() bool { return p.Normalize() == Baseline }

// Subsumes reports the lattice partial order: p's gate set contains o's, so
// o is reachable from p by removing gates. Every point subsumes the
// baseline, and every point subsumes itself. Differential checks use this to
// state metamorphic timing invariants (a point never runs faster than the
// points it subsumes).
func (p ControlPoint) Subsumes(o ControlPoint) bool {
	p = p.Normalize()
	return Compose(p, o.Normalize()) == p
}

// dimension is one composable axis of the lattice.
type dimension struct {
	name  string
	point ControlPoint
}

// dimensions lists the gate axes in canonical (presentation) order; String
// renders components in this order and Parse accepts them in any order.
var dimensions = []dimension{
	{"issue", ThenIssue},
	{"write", ThenWrite},
	{"commit", ThenCommit},
	{"fetch", ThenFetch},
	{"obfuscation", ControlPoint{Authenticate: true, Obfuscate: true}},
	{"pac", ThenPAC},
	{"fpac", ThenFPAC},
}

// Components returns the point's gate dimensions in canonical order
// ("commit", "fetch", ...). Baseline and AuthOnly have none. The fpac
// dimension subsumes pac, so a PACFault point names only "fpac" — the
// canonical name of any point is duplicate-free.
func (p ControlPoint) Components() []string {
	var out []string
	p = p.Normalize()
	for _, d := range dimensions {
		if d.name == "pac" && p.PACFault {
			continue
		}
		if Compose(p, d.point) == p {
			out = append(out, d.name)
		}
	}
	return out
}

// String renders the canonical name: "baseline", "authen-only", or
// "authen-then-" plus the "+"-joined components in canonical order
// ("authen-then-commit+fetch"). Parse round-trips every rendering.
func (p ControlPoint) String() string {
	p = p.Normalize()
	if !p.Authenticate {
		return "baseline"
	}
	parts := p.Components()
	if len(parts) == 0 {
		return "authen-only"
	}
	return "authen-then-" + strings.Join(parts, "+")
}

// MarshalText implements encoding.TextMarshaler with the canonical name.
func (p ControlPoint) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler via Parse.
func (p *ControlPoint) UnmarshalText(b []byte) error {
	pt, err := Parse(string(b))
	if err != nil {
		return err
	}
	*p = pt
	return nil
}

// Parse resolves a control-point name: a registered canonical name first,
// then the composition grammar — an optional "authen-then-"/"then-" prefix
// followed by "+"-separated gate dimensions (issue, write, commit, fetch,
// obfuscation). The legacy short names ("commit+fetch",
// "commit+obfuscation") parse through the grammar. Unknown names error with
// the registered canonical names.
func Parse(name string) (ControlPoint, error) {
	for _, e := range registry {
		if e.Name == name {
			return e.Point, nil
		}
	}
	body := strings.TrimPrefix(name, "authen-then-")
	body = strings.TrimPrefix(body, "then-")
	p := ControlPoint{Authenticate: true}
	ok := body != ""
	for _, part := range strings.Split(body, "+") {
		found := false
		for _, d := range dimensions {
			if d.name == part {
				next := Compose(p, d.point)
				if next == p {
					ok = false // duplicate component
				}
				p, found = next, true
				break
			}
		}
		if !found {
			ok = false
			break
		}
	}
	if !ok {
		return ControlPoint{}, fmt.Errorf(
			"policy: unknown control point %q (registered: %s; or compose gates like %q from issue, write, commit, fetch, obfuscation, pac, fpac)",
			name, strings.Join(Names(), ", "), "authen-then-commit+fetch")
	}
	return p, nil
}

// --- registry ---------------------------------------------------------------

// Entry is one registered canonical control point.
type Entry struct {
	Name  string
	Point ControlPoint
	// Doc is a one-line description for listings.
	Doc string
}

// registry is the fixed table of canonical names, in presentation order:
// authsim -scheme all and Parse's error message list the points in this
// order. Every point is already normalized.
var registry = []Entry{
	{"baseline", Baseline, "decryption only, no integrity verification (normalization baseline)"},
	{"authen-then-issue", ThenIssue, "verification gates instruction issue and operand use"},
	{"authen-then-write", ThenWrite, "committed stores wait for their authentication tag"},
	{"authen-then-commit", ThenCommit, "verification gates instruction retirement"},
	{"authen-then-fetch", ThenFetch, "new external fetches wait for the auth queue to drain"},
	{"authen-then-commit+fetch", CommitPlusFetch, "then-commit plus then-fetch — the paper's recommended point"},
	{"authen-then-commit+obfuscation", CommitPlusObfuscation, "then-commit plus HIDE-style address obfuscation"},
	{"authen-only", AuthOnly, "verify every line but gate nothing (detection without containment)"},
	{"authen-then-pac", ThenPAC, "pointer authentication: failed auth poisons the pointer, faulting at its next use"},
	{"authen-then-fpac", ThenFPAC, "FPAC pointer authentication: failed auth faults at the auth instruction"},
}

// Registered returns the canonical entries in table order.
func Registered() []Entry { return append([]Entry(nil), registry...) }

// Names returns the canonical names in table order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// --- machine knobs ----------------------------------------------------------

// Knobs is the flat set of component configuration bits a control point
// determines. The simulator copies these onto pipeline.Config,
// sim.MemConfig, and secmem.Config — the knobs stay on the components, but
// only the policy layer sets them.
type Knobs struct {
	// Authenticate -> secmem.Config.Authenticate
	Authenticate bool
	// Remap -> secmem.Config.Remap (address obfuscation)
	Remap bool
	// GateIssue -> pipeline.Config.GateIssue
	GateIssue bool
	// UseAtAuth -> sim.MemConfig.UseAtAuth (loaded values usable only
	// after verification; paired with GateIssue)
	UseAtAuth bool
	// StoreWaitAuth -> pipeline.Config.StoreWaitAuth
	StoreWaitAuth bool
	// GateCommit -> pipeline.Config.GateCommit
	GateCommit bool
	// GateFetch -> sim.MemConfig.GateFetch
	GateFetch bool
	// PAC -> pipeline.Config.PACMode poison (fault at next use)
	PAC bool
	// PACFault -> pipeline.Config.PACMode fault-auth (FPAC; implies PAC)
	PACFault bool
}

// Knobs maps the point onto component configuration bits. Each gate
// dimension owns a fixed knob set, so a composition's knobs are exactly the
// union of its components' (pinned by TestKnobOrthogonality).
func (p ControlPoint) Knobs() Knobs {
	p = p.Normalize()
	return Knobs{
		Authenticate:  p.Authenticate,
		Remap:         p.Obfuscate,
		GateIssue:     p.GateIssue,
		UseAtAuth:     p.GateIssue,
		StoreWaitAuth: p.GateWrite,
		GateCommit:    p.GateCommit,
		GateFetch:     p.GateFetch,
		PAC:           p.PAC,
		PACFault:      p.PACFault,
	}
}

// union is the knob-level join, mirroring Compose.
func (k Knobs) union(o Knobs) Knobs {
	return Knobs{
		Authenticate:  k.Authenticate || o.Authenticate,
		Remap:         k.Remap || o.Remap,
		GateIssue:     k.GateIssue || o.GateIssue,
		UseAtAuth:     k.UseAtAuth || o.UseAtAuth,
		StoreWaitAuth: k.StoreWaitAuth || o.StoreWaitAuth,
		GateCommit:    k.GateCommit || o.GateCommit,
		GateFetch:     k.GateFetch || o.GateFetch,
		PAC:           k.PAC || o.PAC,
		PACFault:      k.PACFault || o.PACFault,
	}
}

// --- lattice enumeration ----------------------------------------------------

// Lattice returns the sweepable composable space: every single gate
// dimension plus every pairwise composition, deterministically ordered
// (singles in canonical dimension order, then pairs) and deduplicated —
// pac∘fpac is the fpac single, not a distinct pair. The baseline is not
// included — sweeps add it as the normalization leg. 27 points.
func Lattice() []ControlPoint {
	var out []ControlPoint
	seen := map[ControlPoint]bool{}
	add := func(p ControlPoint) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, d := range dimensions {
		add(d.point)
	}
	for i := range dimensions {
		for j := i + 1; j < len(dimensions); j++ {
			add(Compose(dimensions[i].point, dimensions[j].point))
		}
	}
	return out
}

// ParseSet resolves a policy-set flag value shared by the fuzzing and
// verification CLIs: "full" is the 95-point FullLattice, "lattice" and "ci"
// are the 27-point Lattice (the CI smoke set — all singles and pairs,
// including the pac/fpac dimensions, cheap enough to sweep hundreds of seeds
// on every push), "pac" is the budgeted pointer-authentication slice (both
// PAC modes alone and composed with representative gates), and anything else
// is a comma-separated list of control-point names fed through Parse. A list
// naming one point twice, under any spellings, is an error: each point
// would be swept twice.
func ParseSet(s string) ([]ControlPoint, error) {
	switch s {
	case "full":
		return FullLattice(), nil
	case "lattice", "ci":
		return Lattice(), nil
	case "pac":
		return []ControlPoint{
			ThenPAC,
			ThenFPAC,
			Compose(ThenCommit, ThenPAC),
			Compose(ThenFetch, ThenPAC),
			Compose(ThenIssue, ThenFPAC),
			Compose(CommitPlusFetch, ThenFPAC),
			Compose(CommitPlusObfuscation, ThenPAC),
		}, nil
	}
	var out []ControlPoint
	seen := map[ControlPoint]string{}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		p, err := Parse(name)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[p.Normalize()]; dup {
			return nil, fmt.Errorf("policy set %q: %q and %q both name %s", s, prev, name, p)
		}
		seen[p.Normalize()] = name
		out = append(out, p)
	}
	return out, nil
}

// FullLattice returns every non-baseline point of the lattice: all non-empty
// gate subsets, deduplicated (subsets naming both pac and fpac collapse onto
// the fpac point), ordered by gate count then canonical name. 95 points: 31
// gate subsets crossed with {no pac, pac, fpac}, plus the two PAC-only
// points and their composition closure.
func FullLattice() []ControlPoint {
	var out []ControlPoint
	seen := map[ControlPoint]bool{}
	n := len(dimensions)
	for mask := 1; mask < 1<<n; mask++ {
		p := ControlPoint{Authenticate: true}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p = Compose(p, dimensions[i].point)
			}
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ci, cj := len(out[i].Components()), len(out[j].Components())
		if ci != cj {
			return ci < cj
		}
		return out[i].String() < out[j].String()
	})
	return out
}
