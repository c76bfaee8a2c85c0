package diffcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"

	"authpoint/internal/asm"
	"authpoint/internal/campaign"
	"authpoint/internal/cryptoengine/mactree"
	"authpoint/internal/interp"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// CheckSchema versions the differential check's semantics for the campaign
// result cache: the verdict set, the state-digest encoding, the default
// bounds, and the containment invariants. Any change that could alter a
// Result for the same (source, policy, tamper, site, options) must bump it,
// invalidating every cached cell at once.
const CheckSchema = "authfuzz/check/v1"

// Verdict classifies one differential check.
type Verdict string

// Verdicts. The set is part of the .repro file contract: replays compare
// verdict strings byte-for-byte.
const (
	// VerdictOK: architectural equivalence held (untampered runs), or an
	// untampered-semantics check had nothing to assert.
	VerdictOK Verdict = "ok"
	// VerdictDivergence: the timed simulator and the oracle disagree, or a
	// tamper-containment invariant broke. This is a bug.
	VerdictDivergence Verdict = "divergence"
	// VerdictContained: a tamper run ended in a security fault before any
	// tainted instruction committed (the strong guarantee of issue/commit
	// gates).
	VerdictContained Verdict = "contained"
	// VerdictDetected: a tamper run flagged the tampered line but execution
	// ran ahead to some other stop (detection without containment —
	// authen-only, write/fetch gates).
	VerdictDetected Verdict = "detected"
	// VerdictUndetected: a baseline tamper run — no verification exists to
	// flag it. Expected, not a bug.
	VerdictUndetected Verdict = "undetected"
	// VerdictError: the check itself could not run (assembly failure,
	// non-terminating oracle, machine construction error). Not a divergence,
	// but fuzz sweeps surface it: generated programs must never trip it.
	VerdictError Verdict = "error"
)

// TamperSite selects which encrypted line tamper mode flips its one bit in.
type TamperSite string

// Tamper sites. The site changes what containment can be asserted: the
// entry line is architecturally fetched and executed by every run, so gated
// policies must contain it completely; a data line is only fetched if some
// (possibly wrong-path, later-squashed) memory access touches it, so the
// invariants are conditional on the line actually reaching the bus.
const (
	// SiteEntry: the text line holding the entry point. The default, and
	// the strongest site: the first instruction fetched is guaranteed
	// tainted, so issue/commit gates must end in a security fault with zero
	// instructions committed.
	SiteEntry TamperSite = "entry"
	// SiteData: the first line of the data segment. The line is tainted at
	// rest but reaches the core only if the program (or its wrong path)
	// loads or stores through it; verification is still required to flag it
	// the moment it is fetched.
	SiteData TamperSite = "data"
	// SiteMac: the stored flat MAC of the entry line, leaving data and
	// counter intact. The plaintext decrypts correctly, so under the baseline
	// the run is architecturally identical to the untampered one — the
	// invariant asserts full oracle equivalence. Any authenticating policy
	// must flag the line (entry is always fetched and verified).
	SiteMac TamperSite = "mac"
	// SiteCtr: the entry line's write counter rolled forward by one
	// (counter-replay adversary). Decryption pads with the wrong counter so
	// the fetched instructions are garbage, like SiteEntry; with the default
	// MacCoversCounter the MAC message changes too, so verification fails.
	SiteCtr TamperSite = "ctr"
	// SiteTree: the entry line's leaf digest in the MAC tree (the check
	// forces the tree integrity scheme on). Data and counter are intact, so
	// the invariants mirror SiteMac; level-0 digests are never implicitly
	// trusted, so a fetched entry line must always be flagged.
	SiteTree TamperSite = "tree"
)

// Sites lists every tamper site, in .repro-schema order.
func Sites() []TamperSite {
	return []TamperSite{SiteEntry, SiteData, SiteMac, SiteCtr, SiteTree}
}

// Options configures one differential check.
type Options struct {
	// Policy is the authentication control point for the timed run. The
	// zero value is the decrypt-only baseline.
	Policy policy.ControlPoint
	// Tamper flips one bit in the encrypted image at TamperSite before the
	// run and checks containment invariants instead of equivalence.
	Tamper bool
	// TamperSite selects the tampered line; empty means SiteEntry.
	TamperSite TamperSite
	// WatchdogCycles overrides the timed machine's watchdog (0 = the
	// simulator default). The minimizer lowers it so non-terminating
	// shrink candidates fail fast.
	WatchdogCycles uint64
	// MetricsSink, if set, receives the timed run's observability snapshot
	// (sim.Machine.Metrics: hub metrics, counts and fast-path perf
	// counters). A campaign that collects metrics sets it per cell, so the
	// snapshot rides on the cell's record. Attaching the observer does not
	// change the Result — the fast path is pinned cycle-identical with a
	// hub attached — so replay files stay valid. Cache hits produce no
	// snapshot: nothing was simulated. A check that takes a pointer-auth
	// sibling's outcome receives a copy of the sibling's snapshot, which
	// its own run would have equalled. The sink owns what it receives.
	MetricsSink func(*obs.Snapshot)
	// Cache, if set, is the campaign result cache: Check consults it before
	// simulating and records fresh results into it, keyed on (CheckSchema,
	// source digest, normalized policy, options, tamper+site, model
	// fingerprint). Cached and fresh results are bit-identical — the same
	// determinism the .repro replay corpus pins.
	Cache *campaign.Store
	// Oracle, if set, memoizes the in-order oracle leg across checks: the
	// oracle run is policy-independent (up to the architectural PAC mode),
	// so a cross campaign pays it once per seed instead of once per
	// (seed x policy).
	Oracle *OracleMemo
}

// DefaultMaxOracleInsts bounds the in-order oracle: generated programs
// terminate within a few thousand instructions, so anything near this bound
// is a runaway shrink candidate, not a real program. Programs that exceed
// it report VerdictError, not a divergence.
const DefaultMaxOracleInsts = 2_000_000

// tamperMaxInsts bounds tampered timed runs: a tampered instruction stream
// may do anything, including loop forever without faulting, and the bound
// turns that into a deterministic stop instead of a slow watchdog abort.
const tamperMaxInsts = 100_000

// Result is the outcome of one differential check. All fields are
// deterministic functions of (source, policy, tamper): recorded results
// replay byte-identically.
type Result struct {
	Seed   int64 // generator seed, when the source came from Gen (else 0)
	Policy policy.ControlPoint
	Tamper bool
	// Site is the tampered line's site (SiteEntry when Tamper is set and no
	// site was given; empty for untampered checks).
	Site    TamperSite
	Verdict Verdict
	// Divergence describes the first difference found, empty otherwise.
	Divergence string
	// Reason is the timed machine's stop reason string.
	Reason string
	// Cycles and Insts are the timed run's totals.
	Cycles uint64
	Insts  uint64
	// OracleDigest and SimDigest are hex state digests over registers, OUT
	// log, data segment, and stack (see interp.DigestArchState). For
	// untampered runs with VerdictOK they are equal by construction.
	OracleDigest string
	SimDigest    string
	// Cached marks a result served from the campaign cache rather than a
	// fresh simulation. Not part of the result's identity (cached and fresh
	// results are bit-identical otherwise), so it is excluded from the
	// cache payload.
	Cached bool `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.Tamper && o.TamperSite == "" {
		o.TamperSite = SiteEntry
	}
	return o
}

// digestRanges returns the memory windows covered by state digests and
// memory comparison: the data segment and the stack.
func digestRanges(p *asm.Program, stackB uint64) []interp.MemRange {
	var out []interp.MemRange
	if len(p.Data) > 0 {
		out = append(out, interp.MemRange{Start: p.DataBase, Len: uint64(len(p.Data))})
	}
	out = append(out, interp.MemRange{Start: sim.StackBase, Len: stackB})
	return out
}

// CheckSeed generates the program for seed and checks it; it returns the
// result (with Seed stamped) and the generated source.
func CheckSeed(seed int64, opt Options) (Result, string) {
	src := GenProgram(seed)
	res := Check(src, opt)
	res.Seed = seed
	return res, src
}

// program is a source text as a check uses it: the SHA-256 of the text,
// which keys the oracle memo and the result cache, the assembled program or
// the assembly error, and the end states its checks have hashed. A program
// may be shared between checks and workers: no check or machine writes to
// the assembled program (sim.TestProgramImmutable), and the state list
// guards its own appends.
type program struct {
	digest [32]byte
	prog   *asm.Program
	err    error
	states *stateList
}

// source is a source text as the checks of it share it: its SHA-256, its
// program, assembled by the first call of load, and the outcomes its checks
// leave for their pointer-auth siblings. A check
// calls load only when the result cache does not serve it, so a
// warm-cache check never assembles.
type source struct {
	digest   [32]byte
	load     func() program
	siblings *campaign.Siblings[siblingKey, *sibling]
}

// siblingKey is every input of a check of one program except its
// pointer-auth mode: the policy's gate set (policy.ControlPoint.Gates),
// which the timed machine reads and checkTamper reads through its
// Authenticate, GateIssue and GateCommit, the tamper and its site, the
// watchdog, and whether a metrics sink wants the timed run's snapshot.
type siblingKey struct {
	gates    policy.ControlPoint
	tamper   bool
	site     TamperSite
	watchdog uint64
	metrics  bool
}

// siblingKey is the sibling key of a check with o; o must already have
// defaults applied.
func (o Options) siblingKey() siblingKey {
	return siblingKey{gates: o.Policy.Gates(), tamper: o.Tamper, site: o.TamperSite,
		watchdog: o.WatchdogCycles, metrics: o.MetricsSink != nil}
}

// sibling is the outcome of a check whose timed and oracle runs executed no
// auth whose tag mismatched. The mode is read only on a mismatch, so every
// check with the same siblingKey would have run the same: it takes res,
// restamped with its own policy, and a fresh copy of snap, the timed run's
// snapshot as it was before the witness's own sink saw it (nil without a
// sink).
type sibling struct {
	res  Result
	snap *obs.Snapshot
}

// newSource digests src and defers its assembly to the first load. The
// loaded program starts with an empty state list, and the source with no
// siblings.
func newSource(src string) source {
	digest := sha256.Sum256([]byte(src))
	return source{digest: digest, siblings: new(campaign.Siblings[siblingKey, *sibling]), load: sync.OnceValue(func() program {
		p, err := asm.Assemble(src)
		return program{digest: digest, prog: p, err: err, states: new(stateList)}
	})}
}

// Check runs one program on the timed out-of-order machine and the in-order
// oracle and diffs every piece of architectural state: stop/fault
// behaviour, committed instruction count, both register files, the OUT log,
// and the final memory image of the data segment and stack. Under Tamper it
// instead asserts the policy's containment invariants (see Verdicts).
//
// With Options.Cache set, Check first consults the campaign result cache
// and returns the recorded Result on a hit, marked Cached; fresh results are
// recorded for the next campaign. Cached results are bit-identical to fresh
// ones by the same determinism the replay corpus pins.
func Check(src string, opt Options) Result {
	return checkSource(newSource(src), opt)
}

// checkSource is Check on a source the caller may share between checks.
func checkSource(s source, opt Options) Result {
	opt = opt.withDefaults()
	if opt.Cache == nil {
		return check(s.load(), s.siblings, opt)
	}
	key := cacheKey(s.digest, opt)
	var cached Result
	if ok, err := opt.Cache.Get(key, &cached); err == nil && ok {
		cached.Cached = true
		return cached
	}
	res := check(s.load(), s.siblings, opt)
	if res.Verdict != "" {
		// Write errors are sticky on the store; campaigns surface them
		// once at the end instead of failing cell by cell.
		_ = opt.Cache.Put(key, res)
	}
	return res
}

// cacheKey derives the content address of one check of the program whose
// source text has the given digest. opt must already have defaults applied,
// so the key is canonical: an entry-site tamper always records "entry", and
// the option text names both bounds.
func cacheKey(digest [32]byte, opt Options) campaign.Key {
	k := campaign.Key{
		Check:      CheckSchema,
		Kind:       "fuzz",
		ProgDigest: hex.EncodeToString(digest[:]),
		Policy:     opt.Policy.Normalize().String(),
		Options:    fmt.Sprintf("max_oracle=%d watchdog=%d", DefaultMaxOracleInsts, opt.WatchdogCycles),
		Model:      ModelFingerprint(opt.Policy),
	}
	if opt.Tamper {
		k.Tamper = true
		k.Site = string(opt.TamperSite)
	}
	return k
}

// check is the uncached differential check of pr; opt has defaults applied.
// A check that a pointer-auth sibling of it has already run cleanly takes
// the sibling's outcome from siblings without simulating; one that runs
// cleanly itself leaves its outcome there for its siblings.
func check(pr program, siblings *campaign.Siblings[siblingKey, *sibling], opt Options) Result {
	key := opt.siblingKey()
	if sib, ok := siblings.Get(key); ok {
		if sib.snap != nil {
			opt.MetricsSink(sib.snap.Clone())
		}
		res := sib.res
		res.Policy = opt.Policy.Normalize()
		return res
	}
	var snap *obs.Snapshot
	if sink := opt.MetricsSink; sink != nil {
		opt.MetricsSink = func(s *obs.Snapshot) { snap = s.Clone(); sink(s) }
	}
	res, clean := simulate(pr, opt)
	if clean {
		siblings.Put(key, &sibling{res: res, snap: snap})
	}
	return res
}

// simulate runs the timed machine and the oracle on pr and compares them;
// clean reports that both ran and executed no auth whose tag mismatched.
func simulate(pr program, opt Options) (res Result, clean bool) {
	res = Result{Policy: opt.Policy.Normalize(), Tamper: opt.Tamper, Site: opt.TamperSite}

	if pr.err != nil {
		res.Verdict = VerdictError
		res.Divergence = "assemble: " + pr.err.Error()
		return res, false
	}
	p := pr.prog
	if opt.Tamper && opt.TamperSite == SiteData && len(p.Data) == 0 {
		res.Verdict = VerdictError
		res.Divergence = "tamper site data: program has no data segment"
		return res, false
	}

	cfg := timedConfig(opt)
	ranges := digestRanges(p, cfg.StackB)

	// Oracle leg. Tamper runs still record the untampered reference digest:
	// it is the state the machine would have to "commit" for a containment
	// break to go unnoticed. The oracle's pointer-authentication mode must
	// match the timed machine's: auth-failure behaviour is architectural.
	// The leg is policy-independent beyond that mode, so a memo shares it
	// across the policies of a cross campaign.
	oracle := oracleFor(pr, sim.PACMode(res.Policy), ranges, opt.Oracle)
	if oracle.stop == interp.StopMaxInsts {
		res.Verdict = VerdictError
		res.Divergence = fmt.Sprintf("oracle did not terminate within %d instructions", DefaultMaxOracleInsts)
		return res, false
	}
	res.OracleDigest = hex.EncodeToString(oracle.state.digest[:])

	if testHookTimedRun != nil {
		testHookTimedRun()
	}
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		res.Verdict = VerdictError
		res.Divergence = "machine: " + err.Error()
		return res, false
	}
	// The result holds only values copied out of the machine, so a later
	// cell may rebuild it.
	defer m.Release()
	if opt.Tamper {
		if d := tamper(m, opt.TamperSite); d != "" {
			res.Verdict = VerdictError
			res.Divergence = d
			return res, false
		}
	}
	var hub *obs.Hub
	if opt.MetricsSink != nil {
		hub = obs.NewHub(nil, true)
		m.SetObserver(hub)
		m.EnablePerf()
	}
	simRes, runErr := m.Run()
	res.Reason = simRes.Reason.String()
	res.Cycles = simRes.Cycles
	res.Insts = simRes.Insts
	if hub != nil {
		opt.MetricsSink(m.Metrics(hub, nil))
	}

	clean = simRes.Core.AuthMismatches == 0 && oracle.authMisses == 0

	// Every digest the timed run takes is the oracle's or a state the seed
	// has hashed before when its end state equals one of them byte for byte.
	live := simState(m)
	if opt.Tamper {
		res.SimDigest = pr.states.digest(&live, ranges, oracle.state)
		return checkTamper(res, m, &live, simRes, oracle, ranges), clean
	}
	if runErr != nil && simRes.Reason == sim.StopModelError {
		res.Verdict = VerdictError
		res.Divergence = "model error: " + runErr.Error()
		res.SimDigest = pr.states.digest(&live, ranges, oracle.state)
		return res, clean
	}
	if d := compare(oracle, &live, simRes, ranges); d != "" {
		res.Verdict = VerdictDivergence
		res.Divergence = d
		res.SimDigest = pr.states.digest(&live, ranges, oracle.state)
		return res, clean
	}
	// compare has matched the oracle's end state byte for byte.
	res.SimDigest = res.OracleDigest
	res.Verdict = VerdictOK
	return res, clean
}

// timedConfig is the timed machine's configuration for a check with opt.
func timedConfig(opt Options) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Policy = opt.Policy
	if opt.WatchdogCycles > 0 {
		cfg.WatchdogCycles = opt.WatchdogCycles
	}
	if opt.Tamper {
		cfg.MaxInsts = tamperMaxInsts
		// The data-site verdict depends on whether the tampered line ever
		// reached the bus; keep the adversary trace for that check.
		if opt.TamperSite == SiteData {
			cfg.TraceBus = true
		}
		// The tree site attacks the tree's node storage, so the tree
		// integrity scheme must be on regardless of the base config.
		if opt.TamperSite == SiteTree {
			cfg.Sec.UseTree = true
		}
	}
	return cfg
}

// tamper flips one bit of m's protected image at site before the run. It
// returns why the site cannot be tampered with, or "".
func tamper(m *sim.Machine, site TamperSite) string {
	p := m.Prog
	entryLine := p.Entry &^ 63
	switch site {
	case SiteData:
		// One bit flipped in the encrypted first data line: tainted at
		// rest, fetched only if the program touches it.
		m.Memory.XorRange(p.DataBase, []byte{0x40})
	case SiteMac:
		// One bit flipped in the stored MAC of the entry line; the data
		// and its counter stay intact.
		macAddr, ok := m.Ctrl.MacAddrOf(entryLine)
		if !ok {
			return "tamper site mac: entry line has no flat MAC (tree mode?)"
		}
		m.Ctrl.Memory().XorRange(macAddr, []byte{0x40})
	case SiteCtr:
		// Counter replay: roll the entry line's write counter forward so
		// decryption uses the wrong pad.
		e := m.Ctrl.Encryptor()
		e.SetCounter(entryLine, e.Counter(entryLine)+1)
	case SiteTree:
		// One bit flipped in the entry line's leaf digest node inside the
		// MAC tree's (untrusted) node storage.
		idx, ok := m.Ctrl.LeafIndex(entryLine)
		if !ok {
			return "tamper site tree: entry line is not a protected leaf"
		}
		m.Ctrl.Tree().TamperNode(mactree.NodeID{Level: 0, Index: idx}, []byte{0x40})
	default:
		// One bit flipped in the encrypted text line holding the entry
		// point: the first instruction fetched is guaranteed tainted.
		m.Memory.XorRange(p.Entry, []byte{0x40})
	}
	return ""
}

// checkTamper asserts the containment invariants of a tampered run. Every
// site climbs one ladder: the baseline verifies nothing, an authenticating
// policy must flag the tampered line, an issue or commit gate must end the
// run in a security fault with zero commits, and any other policy contains
// the failure if it fires before the run ends and detects it otherwise.
// The sites differ at three rungs:
//
//   - mac, tree: the fetched plaintext is bit-identical to the untampered
//     image, so the baseline run must equal the oracle's;
//   - data: the program may never touch the tampered first data line, so an
//     unflagged run is correct when that line never reached the bus;
//   - data: the zero-commit rung does not apply, since the line may be
//     fetched late in the run, or only by a squashed wrong-path access that
//     no retiring instruction depends on.
//
// At entry and ctr the fetched instruction stream is garbage from the first
// fetch on.
func checkTamper(res Result, m *sim.Machine, live *liveState, simRes sim.Result, oracle *oracleState, ranges []interp.MemRange) Result {
	k := res.Policy.Knobs()
	meta := res.Site == SiteMac || res.Site == SiteTree
	if !k.Authenticate {
		// Baseline: nothing verifies, so nothing can be asserted beyond
		// determinism. The tamper executing unnoticed is the vulnerability
		// the paper measures, not a bug in the model; a metadata tamper is
		// never even read, so it must be invisible.
		if meta {
			if d := compare(oracle, live, simRes, ranges); d != "" {
				res.Verdict = VerdictDivergence
				res.Divergence = "metadata tamper perturbed an unauthenticated run: " + d
				return res
			}
		}
		res.Verdict = VerdictUndetected
		return res
	}
	// The controller verifies eagerly at fetch, so a fetched tampered line
	// is always flagged. The entry line is always fetched.
	if m.Ctrl.Fault() == nil {
		switch {
		case res.Site == SiteData:
			if !slices.Contains(m.ReadLineAddrsBefore(sim.StopCycle(simRes)), m.Prog.DataBase&^63) {
				res.Verdict = VerdictOK // line never fetched: nothing to assert
				return res
			}
			res.Divergence = "tampered data line was fetched but never flagged by verification"
		case meta:
			res.Divergence = "tampered integrity metadata of the entry line was never flagged by verification"
		default:
			res.Divergence = "tampered entry line was fetched but never flagged by verification"
		}
		res.Verdict = VerdictDivergence
		return res
	}
	if (k.GateIssue || k.GateCommit) && res.Site != SiteData {
		// Containment gates: the tainted entry instruction may not issue
		// (then-issue) or retire (then-commit) before its line verifies, and
		// its verification fails.
		if simRes.Reason != sim.StopSecurityFault {
			res.Verdict = VerdictDivergence
			res.Divergence = fmt.Sprintf("issue/commit-gated policy stopped with %v, want security-fault", simRes.Reason)
			return res
		}
		if simRes.Insts != 0 {
			res.Verdict = VerdictDivergence
			if meta {
				res.Divergence = fmt.Sprintf("issue/commit-gated policy committed %d instructions before the metadata fault", simRes.Insts)
			} else {
				res.Divergence = fmt.Sprintf("issue/commit-gated policy committed %d tainted instructions before the fault", simRes.Insts)
			}
			return res
		}
		res.Verdict = VerdictContained
		return res
	}
	// Weaker points (authen-only, write/fetch gates), and any policy at the
	// data site: detection is guaranteed, containment is not — execution
	// may run ahead and even halt before the exception fires. That gap is
	// the paper's Table 2.
	if simRes.Reason == sim.StopSecurityFault {
		res.Verdict = VerdictContained
		return res
	}
	res.Verdict = VerdictDetected
	return res
}

// compare diffs the architectural outcome of the timed run, whose end
// state is live, against the oracle snapshot and returns a description of
// the first difference ("" if equivalent). Most end states match: they are
// compared with the snapshot a page span at a time, and one that differs is
// walked register by register and word by word to describe its first
// difference.
func compare(oracle *oracleState, live *liveState, simRes sim.Result, ranges []interp.MemRange) string {
	switch oracle.stop {
	case interp.StopHalt:
		if simRes.Reason != sim.StopHalt {
			return fmt.Sprintf("core stopped with %v, oracle halted", simRes.Reason)
		}
		if simRes.Insts != oracle.insts {
			return fmt.Sprintf("committed %d insts, oracle executed %d", simRes.Insts, oracle.insts)
		}
	case interp.StopFault:
		// Precise exceptions: the committed state at the fault must match
		// the oracle's state before the faulting instruction. Instruction
		// counts differ by convention (the oracle counts the faulting
		// instruction; the pipeline never commits it), so they are not
		// compared here.
		if simRes.Reason != sim.StopArchFault {
			return fmt.Sprintf("core stopped with %v, oracle faulted (%s at %#x)", simRes.Reason, oracle.faultKind, oracle.faultAddr)
		}
	}
	want := oracle.state
	if want.matches(live, ranges) {
		return ""
	}
	for r, got := range live.regs {
		if got != want.regs[r] {
			return fmt.Sprintf("r%d = %#x, oracle %#x", r, got, want.regs[r])
		}
	}
	for r, got := range live.fregs {
		if got != want.fregs[r] {
			return fmt.Sprintf("f%d = %#x, oracle %#x", r, got, want.fregs[r])
		}
	}
	outs := live.outs
	if len(outs) != len(want.outs) {
		return fmt.Sprintf("%d OUTs, oracle %d", len(outs), len(want.outs))
	}
	for i := range outs {
		if outs[i] != want.outs[i] {
			return fmt.Sprintf("out[%d] = (%#x,%#x), oracle (%#x,%#x)",
				i, outs[i].Port, outs[i].Val, want.outs[i].Port, want.outs[i].Val)
		}
	}
	for _, rg := range ranges {
		for off := uint64(0); off < rg.Len; off += 8 {
			addr, n := rg.Start+off, int(min(8, rg.Len-off))
			if got, w := live.mem.ReadUint(addr, n), want.readUint(addr, n); got != w {
				return fmt.Sprintf("mem[%#x] = %#x, oracle %#x", addr, got, w)
			}
		}
	}
	return ""
}
