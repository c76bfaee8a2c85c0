package diffcheck

import (
	"encoding/hex"
	"fmt"

	"authpoint/internal/asm"
	"authpoint/internal/campaign"
	"authpoint/internal/cryptoengine/mactree"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/interp"
	"authpoint/internal/isa"
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
	// Mutate, if set, adjusts the timed config after the policy is applied
	// (prefetcher on, MSHR bounds, ...). Mutations are not recorded in
	// repro files; corpus entries must not rely on them.
	Mutate func(*sim.Config)
	// Tamper flips one bit in the encrypted image at TamperSite before the
	// run and checks containment invariants instead of equivalence.
	Tamper bool
	// TamperSite selects the tampered line; empty means SiteEntry.
	TamperSite TamperSite
	// MaxOracleInsts bounds the oracle run (0 = DefaultMaxOracleInsts).
	// Programs that exceed it report VerdictError, not a divergence.
	MaxOracleInsts uint64
	// WatchdogCycles overrides the timed machine's watchdog (0 = the
	// simulator default). The minimizer lowers it so non-terminating
	// shrink candidates fail fast.
	WatchdogCycles uint64
	// MetricsSink, if set, receives the timed run's observability snapshot
	// (hub metrics + fast-path perf counters). It must be safe for
	// concurrent use: sweeps call it from every worker. Attaching the
	// observer does not change the Result — the fast path is pinned
	// cycle-identical with a hub attached — so replay files stay valid.
	// Cache hits produce no snapshot: nothing was simulated.
	MetricsSink func(*obs.Snapshot)
	// Cache, if set, is the campaign result cache: Check consults it before
	// simulating and records fresh results into it, keyed on (CheckSchema,
	// source digest, normalized policy, options, tamper+site). Cached and
	// fresh results are bit-identical — the same determinism the .repro
	// replay corpus pins. Checks with Mutate set bypass the cache (a
	// mutation function has no canonical fingerprint).
	Cache *campaign.Store
	// Oracle, if set, memoizes the in-order oracle leg across checks: the
	// oracle run is policy-independent (up to the architectural PAC mode),
	// so a cross campaign pays it once per seed instead of once per
	// (seed x policy). Checks with Mutate set bypass the memo (mutations
	// may move the digest windows).
	Oracle *OracleMemo
}

// DefaultMaxOracleInsts bounds the in-order oracle: generated programs
// terminate within a few thousand instructions, so anything near this bound
// is a runaway shrink candidate, not a real program.
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
	if o.MaxOracleInsts == 0 {
		o.MaxOracleInsts = DefaultMaxOracleInsts
	}
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

// Check runs one program on the timed out-of-order machine and the in-order
// oracle and diffs every piece of architectural state: stop/fault
// behaviour, committed instruction count, both register files, the OUT log,
// and the final memory image of the data segment and stack. Under Tamper it
// instead asserts the policy's containment invariants (see Verdicts).
//
// With Options.Cache set (and no Mutate), Check first consults the campaign
// result cache and returns the recorded Result on a hit, marked Cached;
// fresh results are recorded for the next campaign. Cached results are
// bit-identical to fresh ones by the same determinism the replay corpus
// pins.
func Check(src string, opt Options) Result {
	opt = opt.withDefaults()
	if opt.Cache != nil && opt.Mutate == nil {
		key := cacheKey(src, opt)
		var cached Result
		if ok, err := opt.Cache.Get(key, &cached); err == nil && ok {
			cached.Cached = true
			return cached
		}
		res := check(src, opt)
		if res.Verdict != "" {
			// Write errors are sticky on the store; campaigns surface them
			// once at the end instead of failing cell by cell.
			_ = opt.Cache.Put(key, res)
		}
		return res
	}
	return check(src, opt)
}

// cacheKey derives the content address of one check. opt must already have
// defaults applied, so the key is canonical: an entry-site tamper always
// records "entry", bounds are always explicit.
func cacheKey(src string, opt Options) campaign.Key {
	k := campaign.Key{
		Check:      CheckSchema,
		Kind:       "fuzz",
		ProgDigest: campaign.Digest([]byte(src)),
		Policy:     opt.Policy.Normalize().String(),
		Options:    fmt.Sprintf("max_oracle=%d watchdog=%d", opt.MaxOracleInsts, opt.WatchdogCycles),
	}
	if opt.Tamper {
		k.Tamper = true
		k.Site = string(opt.TamperSite)
	}
	return k
}

// check is the uncached differential check; opt has defaults applied.
func check(src string, opt Options) Result {
	res := Result{Policy: opt.Policy.Normalize(), Tamper: opt.Tamper, Site: opt.TamperSite}

	p, err := asm.Assemble(src)
	if err != nil {
		res.Verdict = VerdictError
		res.Divergence = "assemble: " + err.Error()
		return res
	}
	if opt.Tamper && opt.TamperSite == SiteData && len(p.Data) == 0 {
		res.Verdict = VerdictError
		res.Divergence = "tamper site data: program has no data segment"
		return res
	}

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
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	ranges := digestRanges(p, cfg.StackB)

	// Oracle leg. Tamper runs still record the untampered reference digest:
	// it is the state the machine would have to "commit" for a containment
	// break to go unnoticed. The oracle's pointer-authentication mode must
	// match the timed machine's: auth-failure behaviour is architectural.
	// The leg is policy-independent beyond that mode, so a memo shares it
	// across the policies of a cross campaign.
	mode := pacModeFor(res.Policy)
	var oracle *oracleState
	if opt.Oracle != nil && opt.Mutate == nil {
		oracle = opt.Oracle.run(src, p, mode, opt.MaxOracleInsts, ranges)
	} else {
		oracle = runOracle(p, mode, opt.MaxOracleInsts, ranges)
	}
	if oracle.stop == interp.StopMaxInsts {
		res.Verdict = VerdictError
		res.Divergence = fmt.Sprintf("oracle did not terminate within %d instructions", opt.MaxOracleInsts)
		return res
	}
	res.OracleDigest = hex.EncodeToString(oracle.digest[:])

	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		res.Verdict = VerdictError
		res.Divergence = "machine: " + err.Error()
		return res
	}
	// The result holds only values copied out of the machine, so a later
	// cell may rebuild it.
	defer m.Release()
	if opt.Tamper {
		entryLine := p.Entry &^ 63
		switch opt.TamperSite {
		case SiteData:
			// One bit flipped in the encrypted first data line: tainted at
			// rest, fetched only if the program touches it.
			m.Memory.XorRange(p.DataBase, []byte{0x40})
		case SiteMac:
			// One bit flipped in the stored MAC of the entry line; the data
			// and its counter stay intact.
			macAddr, ok := m.Ctrl.MacAddrOf(entryLine)
			if !ok {
				res.Verdict = VerdictError
				res.Divergence = "tamper site mac: entry line has no flat MAC (tree mode?)"
				return res
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
				res.Verdict = VerdictError
				res.Divergence = "tamper site tree: entry line is not a protected leaf"
				return res
			}
			m.Ctrl.Tree().TamperNode(mactree.NodeID{Level: 0, Index: idx}, []byte{0x40})
		default:
			// One bit flipped in the encrypted text line holding the entry
			// point: the first instruction fetched is guaranteed tainted.
			m.Memory.XorRange(p.Entry, []byte{0x40})
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
	sd := m.ArchDigest(ranges...)
	res.SimDigest = hex.EncodeToString(sd[:])
	if hub != nil {
		snap := hub.Snapshot()
		m.Perf().AddTo(snap)
		opt.MetricsSink(snap)
	}

	if opt.Tamper {
		switch opt.TamperSite {
		case SiteData:
			return checkTamperData(res, m, simRes, p.DataBase&^63)
		case SiteMac, SiteTree:
			return checkTamperMeta(res, m, simRes, oracle, ranges)
		default: // entry, ctr: the fetched instruction stream is garbage
			return checkTamper(res, m, simRes)
		}
	}
	if runErr != nil && simRes.Reason == sim.StopModelError {
		res.Verdict = VerdictError
		res.Divergence = "model error: " + runErr.Error()
		return res
	}
	if d := compare(oracle, m, simRes, ranges); d != "" {
		res.Verdict = VerdictDivergence
		res.Divergence = d
		return res
	}
	res.Verdict = VerdictOK
	return res
}

// pacModeFor maps policy knobs to the architectural auth-failure mode, the
// same mapping the simulator's applyPolicy uses.
func pacModeFor(pt policy.ControlPoint) pacmac.Mode {
	k := pt.Knobs()
	switch {
	case k.PACFault:
		return pacmac.ModeFaultAuth
	case k.PAC:
		return pacmac.ModePoison
	default:
		return pacmac.ModeOff
	}
}

// checkTamperMeta asserts the invariants of a run whose integrity metadata
// (stored MAC or tree node) was tampered while the data and counter stayed
// intact. The fetched plaintext is bit-identical to the untampered image, so
// under the baseline the run must be architecturally equivalent to the
// oracle; any authenticating policy must flag the entry line the moment it
// verifies, and issue/commit gates must contain it with zero commits.
func checkTamperMeta(res Result, m *sim.Machine, simRes sim.Result, oracle *oracleState, ranges []interp.MemRange) Result {
	k := res.Policy.Knobs()
	if !k.Authenticate {
		// Baseline: the metadata is never read, so the tamper must be
		// completely invisible — full architectural equivalence.
		if d := compare(oracle, m, simRes, ranges); d != "" {
			res.Verdict = VerdictDivergence
			res.Divergence = "metadata tamper perturbed an unauthenticated run: " + d
			return res
		}
		res.Verdict = VerdictUndetected
		return res
	}
	if m.Ctrl.Fault() == nil {
		res.Verdict = VerdictDivergence
		res.Divergence = "tampered integrity metadata of the entry line was never flagged by verification"
		return res
	}
	if k.GateIssue || k.GateCommit {
		if simRes.Reason != sim.StopSecurityFault {
			res.Verdict = VerdictDivergence
			res.Divergence = fmt.Sprintf("issue/commit-gated policy stopped with %v, want security-fault", simRes.Reason)
			return res
		}
		if simRes.Insts != 0 {
			res.Verdict = VerdictDivergence
			res.Divergence = fmt.Sprintf("issue/commit-gated policy committed %d instructions before the metadata fault", simRes.Insts)
			return res
		}
		res.Verdict = VerdictContained
		return res
	}
	if simRes.Reason == sim.StopSecurityFault {
		res.Verdict = VerdictContained
		return res
	}
	res.Verdict = VerdictDetected
	return res
}

// checkTamper asserts the metamorphic containment invariants of a tampered
// run: gated policies never commit tampered-but-unverified state.
func checkTamper(res Result, m *sim.Machine, simRes sim.Result) Result {
	k := res.Policy.Knobs()
	if !k.Authenticate {
		// Baseline: nothing verifies, so nothing can be asserted beyond
		// determinism. The tamper executing unnoticed is the vulnerability
		// the paper measures, not a bug in the model.
		res.Verdict = VerdictUndetected
		return res
	}
	// Every authenticating policy must at least flag the tampered line: the
	// entry line is always fetched, always enqueued, always verified.
	if m.Ctrl.Fault() == nil {
		res.Verdict = VerdictDivergence
		res.Divergence = "tampered entry line was fetched but never flagged by verification"
		return res
	}
	if k.GateIssue || k.GateCommit {
		// Containment gates: the tainted entry instruction may not issue
		// (then-issue) or retire (then-commit) before its line verifies, and
		// its verification fails — so the run must end in a security fault
		// with zero instructions committed.
		if simRes.Reason != sim.StopSecurityFault {
			res.Verdict = VerdictDivergence
			res.Divergence = fmt.Sprintf("issue/commit-gated policy stopped with %v, want security-fault", simRes.Reason)
			return res
		}
		if simRes.Insts != 0 {
			res.Verdict = VerdictDivergence
			res.Divergence = fmt.Sprintf("issue/commit-gated policy committed %d tainted instructions before the fault", simRes.Insts)
			return res
		}
		res.Verdict = VerdictContained
		return res
	}
	// Weaker points (authen-only, write/fetch gates): detection is
	// guaranteed, containment is not — execution may run ahead and even
	// halt before the exception fires. That gap is the paper's Table 2.
	if simRes.Reason == sim.StopSecurityFault {
		res.Verdict = VerdictContained
		return res
	}
	res.Verdict = VerdictDetected
	return res
}

// checkTamperData asserts the containment invariants of a run whose first
// data line was tampered at rest. Unlike the entry line, a data line is not
// guaranteed to be fetched — the program may never touch it — so the
// invariants are conditional: the controller computes verification eagerly
// at fetch, so a fetched tampered line must always be flagged; gated
// policies contain the failure when it fires before the run ends. The
// strong zero-commits assertion of the entry site does not carry over: the
// line may be fetched late in the run, or only by a squashed wrong-path
// access that no retiring instruction depends on.
func checkTamperData(res Result, m *sim.Machine, simRes sim.Result, lineAddr uint64) Result {
	k := res.Policy.Knobs()
	if !k.Authenticate {
		// Baseline: nothing verifies; whatever garbage the tampered line
		// decrypts to is the vulnerability, not a model bug.
		res.Verdict = VerdictUndetected
		return res
	}
	if m.Ctrl.Fault() == nil {
		// Eager verification means fetched => flagged; an unflagged run is
		// only legitimate if the tampered line never reached the bus.
		for _, a := range m.ReadLineAddrsBefore(sim.StopCycle(simRes)) {
			if a == lineAddr {
				res.Verdict = VerdictDivergence
				res.Divergence = "tampered data line was fetched but never flagged by verification"
				return res
			}
		}
		res.Verdict = VerdictOK // line never fetched: nothing to assert
		return res
	}
	if simRes.Reason == sim.StopSecurityFault {
		res.Verdict = VerdictContained
		return res
	}
	res.Verdict = VerdictDetected
	return res
}

// compare diffs the architectural outcome of the timed run against the
// oracle snapshot and returns a description of the first difference ("" if
// equivalent).
func compare(oracle *oracleState, m *sim.Machine, simRes sim.Result, ranges []interp.MemRange) string {
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
	for r := uint8(0); r < isa.NumIntRegs; r++ {
		if got, want := m.Core.Reg(r), oracle.regs[r]; got != want {
			return fmt.Sprintf("r%d = %#x, oracle %#x", r, got, want)
		}
	}
	for r := uint8(0); r < isa.NumFPRegs; r++ {
		if got, want := m.Core.FReg(r), oracle.fregs[r]; got != want {
			return fmt.Sprintf("f%d = %#x, oracle %#x", r, got, want)
		}
	}
	outs := m.Core.OutLog()
	if len(outs) != len(oracle.outs) {
		return fmt.Sprintf("%d OUTs, oracle %d", len(outs), len(oracle.outs))
	}
	for i := range outs {
		if outs[i].Port != oracle.outs[i].Port || outs[i].Val != oracle.outs[i].Val {
			return fmt.Sprintf("out[%d] = (%#x,%#x), oracle (%#x,%#x)",
				i, outs[i].Port, outs[i].Val, oracle.outs[i].Port, oracle.outs[i].Val)
		}
	}
	for ri, rg := range ranges {
		for off := uint64(0); off < rg.Len; off += 8 {
			n := 8
			if rg.Len-off < 8 {
				n = int(rg.Len - off)
			}
			got := m.Shadow.ReadUint(rg.Start+off, n)
			want := oracle.readUint(ri, off, n)
			if got != want {
				return fmt.Sprintf("mem[%#x] = %#x, oracle %#x", rg.Start+off, got, want)
			}
		}
	}
	return ""
}
