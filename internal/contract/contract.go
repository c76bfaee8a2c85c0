// Package contract promotes the static analysis' findings into machine-checked
// leakage contracts, following the leakage-contracts methodology: the static
// half derives, per (program, policy), the set of observable differences the
// analysis *licenses* an adversary on the bus to see; the dynamic half runs the
// same program twice on secret-differing data images and requires that the
// adversary-observable traces differ only where the contract licenses it.
//
// The adversary model is the paper's: probes on the memory bus see every
// transaction's address, kind, and cycle timing, but never plaintext data.
// Address obfuscation (policy.ControlPoint.Obfuscate) removes the address from
// that view — the adversary still sees that transactions happen and when, so
// the timing channel survives obfuscation while the address channel does not.
//
// Soundness of the two-run check rests on the machine being deterministic
// (same program + same data image => bit-identical run — pinned by the repro
// corpus), on all execution latencies being data-independent configuration
// constants, and on the data images differing only inside the program's
// declared secret ranges. Under those premises any observable difference
// between the two runs is caused by the secret, so a difference outside the
// contract is either an unsoundness in the static analysis or a real leak the
// design was claimed to close — verdict "unsound" either way.
package contract

import (
	"sort"
	"strconv"

	"authpoint/internal/analysis"
	"authpoint/internal/asm"
	"authpoint/internal/policy"
)

// Channel names one adversary-observable difference class.
type Channel string

// Channels of the bus adversary.
const (
	// ChannelAddr: the address field of a bus transaction differs — the
	// memory-fetch side channel of the paper. Closed by address obfuscation.
	ChannelAddr Channel = "bus-addr"
	// ChannelTiming: the shape of the trace differs — transaction count,
	// per-transaction cycles, or total run length. Not closed by any control
	// point in the lattice: gates move *when* verification stalls, they do
	// not make latencies data-independent.
	ChannelTiming Channel = "timing"
)

// Entry is one licensed leak source: a secret-tainted instruction whose
// observable (effective address or control flow) the static analysis reports.
type Entry struct {
	PC   uint64        `json:"pc"`
	Kind analysis.Kind `json:"kind"`
	Sym  string        `json:"sym,omitempty"`
	Line int           `json:"line,omitempty"`
}

// Contract is the per-(program, policy) leakage contract: what the static
// analysis licenses the bus adversary to observe when the secret varies.
//
// Entries hold the secret-tainted addr-leak and ctrl-leak findings — the two
// kinds whose observables reach the bus as fetch addresses. io-leak findings
// are excluded (OUT ports are not bus-visible in the adversary model) and
// state-taint findings are excluded (memory *contents* cross the bus only as
// ciphertext). Each entry licenses the timing channel unconditionally, and
// the address channel iff the policy leaves addresses visible (no
// obfuscation): obfuscation re-maps the lines an access touches but cannot
// hide that the access happened, nor when.
type Contract struct {
	// Policy is the canonical control-point name the contract was derived for.
	Policy string `json:"policy"`
	// AddrVisible is false under obfuscating policies: bus addresses carry no
	// information, so no entry licenses ChannelAddr.
	AddrVisible bool `json:"addr_visible"`
	// Entries are the licensed leak sources, in program order.
	Entries []Entry `json:"entries"`
	// SecretRanges are the resolved secret intervals the derivation used —
	// the two-run checker varies exactly these bytes.
	SecretRanges []analysis.Range `json:"secret_ranges,omitempty"`
}

// Derive computes the leakage contract of prog under the control point, on
// top of a base analysis configuration (extra secret symbols or ranges).
//
// The policy only stamps the contract: its entries and secret ranges are the
// same under every control point, and only AddrVisible varies. The gates
// leave the analysis' secret bits alone: TrustLoads (authen-then-issue)
// clears only the Unverified bit, StateChecks (authen-then-write) only adds
// state-taint findings, which contracts drop, and constant tracking never
// reads taint. Unlike AnalyzeForPolicy, which drops addr/ctrl findings from
// lint reports under obfuscating policies, the contract keeps them: they
// still license the timing channel, and dropping them would turn every
// secret-dependent cycle-count difference under obfuscation into a false
// "unsound" verdict.
func Derive(prog *asm.Program, pt policy.ControlPoint, base analysis.Options) (*Contract, error) {
	c, err := derive(prog, base)
	if err != nil {
		return nil, err
	}
	return c.stamped(pt), nil
}

// derive computes the policy-free half of prog's contract: its entries and
// secret ranges, with no policy stamped.
func derive(prog *asm.Program, base analysis.Options) (*Contract, error) {
	rep, err := analysis.Analyze(prog, base)
	if err != nil {
		return nil, err
	}
	c := &Contract{SecretRanges: rep.SecretRanges}
	for _, f := range rep.Findings {
		if !f.Taint.Secret() {
			continue
		}
		if f.Kind != analysis.KindAddr && f.Kind != analysis.KindCtrl {
			continue
		}
		c.Entries = append(c.Entries, Entry{PC: f.PC, Kind: f.Kind, Sym: f.Sym, Line: f.Line})
	}
	return c, nil
}

// stamped returns c under the control point: a copy naming the policy, with
// the address channel visible unless the policy obfuscates. The copy shares
// c's entries and secret ranges, which no caller modifies.
func (c *Contract) stamped(pt policy.ControlPoint) *Contract {
	pt = pt.Normalize()
	s := *c
	s.Policy, s.AddrVisible = pt.String(), !pt.Obfuscate
	return &s
}

// Licenses reports whether the contract licenses any difference on ch. An
// empty contract licenses nothing: the program's observables are claimed
// secret-independent.
func (c *Contract) Licenses(ch Channel) bool {
	if len(c.Entries) == 0 {
		return false
	}
	switch ch {
	case ChannelAddr:
		return c.AddrVisible
	case ChannelTiming:
		return true
	}
	return false
}

// Channels returns the licensed channels in canonical order.
func (c *Contract) Channels() []Channel {
	var out []Channel
	for _, ch := range []Channel{ChannelAddr, ChannelTiming} {
		if c.Licenses(ch) {
			out = append(out, ch)
		}
	}
	return out
}

// Empty reports a contract that licenses no observable difference.
func (c *Contract) Empty() bool { return len(c.Entries) == 0 }

// SubsetOf reports contract containment: every (entry, channel) pair c
// licenses is also licensed by o. The lattice theorem the property tests pin
// is that p.Subsumes(q) implies contract(p) ⊆ contract(q) for the same
// program — adding gates never licenses *new* observables, and adding
// obfuscation strictly removes the address channel.
func (c *Contract) SubsetOf(o *Contract) bool {
	if len(c.Entries) > 0 && c.AddrVisible && !o.AddrVisible {
		return false
	}
	type key struct {
		pc   uint64
		kind analysis.Kind
	}
	have := make(map[key]bool, len(o.Entries))
	for _, e := range o.Entries {
		have[key{e.PC, e.Kind}] = true
	}
	for _, e := range c.Entries {
		if !have[key{e.PC, e.Kind}] {
			return false
		}
	}
	return true
}

// Counts returns the number of entries per finding kind, for golden tests
// and reports.
func (c *Contract) Counts() map[analysis.Kind]int {
	m := map[analysis.Kind]int{}
	for _, e := range c.Entries {
		m[e.Kind]++
	}
	return m
}

// KindsSummary renders the counts compactly ("addr-leak=3 ctrl-leak=1").
func (c *Contract) KindsSummary() string {
	counts := c.Counts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	out := ""
	for _, k := range kinds {
		if out != "" {
			out += " "
		}
		out += k + "=" + strconv.Itoa(counts[analysis.Kind(k)])
	}
	if out == "" {
		return "empty"
	}
	return out
}
