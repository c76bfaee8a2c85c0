package contract

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"authpoint/internal/analysis"
	"authpoint/internal/asm"
	"authpoint/internal/bus"
	"authpoint/internal/campaign"
	"authpoint/internal/diffcheck"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// CheckSchema versions the two-run check's semantics for the campaign result
// cache: the verdict set, the adversary-view encoding, the secret-pair
// derivation, and the contract derivation. Any change that could alter a
// Result for the same (source, policy, options) must bump it.
const CheckSchema = "authverify/check/v1"

// Verdict classifies one two-run contract check.
type Verdict string

// Verdicts. The set is part of the .leak file contract: replays compare
// verdict strings byte-for-byte.
const (
	// VerdictClean: the contract is empty and the two runs were observably
	// identical — the analysis claimed nothing leaks, and nothing did.
	VerdictClean Verdict = "clean"
	// VerdictLicensed: the runs differed, and every differing channel is
	// licensed by a static finding. The leak is real and the analysis saw it
	// coming — the sound case the attack-kernel catalog pins.
	VerdictLicensed Verdict = "licensed"
	// VerdictImprecise: the contract licenses differences that never
	// materialized. Contract slack, not a bug: the analysis is conservative
	// by design (secret-dependent addresses that stay within one cache line,
	// branches whose arms are observably identical).
	VerdictImprecise Verdict = "imprecise"
	// VerdictUnsound: the runs differed on a channel no static finding
	// licenses — a dynamic leak the analysis missed. Either an analysis bug
	// or a real design leak; both are findings, ddmin-minimized and recorded.
	VerdictUnsound Verdict = "unsound"
	// VerdictError: the check itself could not run (assembly failure, no
	// patchable secret range, watchdog, model error).
	VerdictError Verdict = "error"
)

// Options configures one two-run check.
type Options struct {
	// Policy is the authentication control point both runs execute under.
	Policy policy.ControlPoint
	// Analysis is the static-analysis configuration (extra secret symbols
	// or ranges). It is policy-free: the policy only decides the contract's
	// AddrVisible (see Derive).
	Analysis analysis.Options
	// Seed derives the secret image pair when SecretA/SecretB are nil, and
	// is stamped into the result.
	Seed int64
	// SecretA and SecretB, when set, are the two images patched over the
	// program's first in-data secret range (truncated to the range). When
	// nil, diffcheck.SecretPair(Seed, rangeLen) supplies them.
	SecretA, SecretB []byte
	// Regions are extra protected+mapped address ranges (the attack
	// kernels' probe window).
	Regions []sim.Region
	// WatchdogCycles overrides the timed machines' watchdog (0 = simulator
	// default). The minimizer lowers it so non-terminating shrink candidates
	// fail fast.
	WatchdogCycles uint64
	// ObserveWatchdog treats a watchdog stop as the end of a bounded
	// observation window instead of a check error. Victim kernels never
	// halt: the adversary watches the bus for WatchdogCycles and the view is
	// whatever crossed it by then. The window end is a cycle count, so it
	// cuts both runs at the same horizon.
	ObserveWatchdog bool
	// MetricsSink, if set, receives each timed run's observability snapshot
	// (two per check — run A and run B). A campaign that collects metrics
	// sets it per cell, so the cell's record carries both runs merged. The
	// hub reads no bus event, so the adversary collector keeps the bus
	// observer slot and the recorded view is unchanged. Cache hits produce
	// no snapshot: nothing was simulated. A check that takes a pointer-auth
	// sibling's runs receives copies of the sibling's two snapshots, which
	// its own runs would have equalled. The sink owns what it receives.
	MetricsSink func(*obs.Snapshot)
	// Cache, if set, is the campaign result cache: CheckProgram consults it
	// before simulating and records fresh results into it, keyed on
	// (CheckSchema, source digest, normalized policy, every result-relevant
	// option including the secret images, and the model fingerprint).
	// Cached and fresh results are bit-identical — the same determinism the
	// .leak replay corpus pins.
	Cache *campaign.Store
}

// ViewEvent is one bus transaction as the adversary records it: start cycle,
// address (zero under obfuscation — the re-mapped address carries no
// information), transaction kind, and data-done cycle.
type ViewEvent struct {
	Cycle uint64
	Addr  uint64
	Kind  bus.Kind
	Done  uint64
}

// View is the full adversary observation of one run: the bus transaction
// sequence plus the run's length and stop reason (power-off timing is
// observable too).
type View struct {
	Cycles uint64
	Reason string
	Events []ViewEvent
}

// Result is the outcome of one two-run check. All fields are deterministic
// functions of (source, policy, images): recorded results replay
// byte-identically.
type Result struct {
	Seed    int64
	Policy  policy.ControlPoint
	Verdict Verdict
	// Channels are the channels on which the two views differed, in
	// canonical order (addr, timing). Empty when the views matched.
	Channels []Channel
	// Diff describes the first difference found per channel ("" if none);
	// for unsound verdicts it names the unlicensed channel.
	Diff string
	// Contract is the static contract the dynamic observation was checked
	// against.
	Contract *Contract
	// CyclesA and CyclesB are the two runs' lengths.
	CyclesA, CyclesB uint64
	// SecretA and SecretB are the images the runs used (recorded for
	// deterministic replay).
	SecretA, SecretB []byte
	// Cached marks a result served from the campaign cache rather than a
	// fresh pair of simulations. Not part of the result's identity, so it
	// is excluded from the cache payload.
	Cached bool `json:"-"`
}

// busCollector records the adversary view: bus transactions only.
type busCollector struct {
	events []obs.Event
}

func (c *busCollector) Emit(e obs.Event) {
	if e.Kind == obs.EvBusTxn {
		c.events = append(c.events, e)
	}
}

// CheckSeed generates the secret-mode program for seed and checks it; it
// returns the result (with Seed stamped) and the generated source.
func CheckSeed(seed int64, opt Options) (Result, string) {
	src := diffcheck.GenSecretProgram(seed)
	opt.Seed = seed
	return CheckProgram(src, opt), src
}

// CheckProgram assembles src and runs the two-run contract check on it,
// consulting the campaign cache (Options.Cache) first when one is attached.
func CheckProgram(src string, opt Options) Result {
	return checkSource(newSource(src, opt), opt)
}

// source is a source text as the checks of it share it: its digest, its
// prepared check, prepared by the first call of load, and the views its
// checks leave for their pointer-auth siblings. A check
// calls load only when the result cache does not serve it, so a warm-cache
// check never assembles or derives.
type source struct {
	digest   string
	load     func() *prepared
	siblings *campaign.Siblings[viewKey, *views]
}

// newSource digests src and defers its preparation under opt's
// policy-free options to the first load.
func newSource(src string, opt Options) source {
	return source{digest: campaign.Digest([]byte(src)), siblings: new(campaign.Siblings[viewKey, *views]), load: sync.OnceValue(func() *prepared {
		return prepareSource(src, opt)
	})}
}

// checkSource is CheckProgram on a source the caller may share between the
// checks of the options it was prepared with, under any policy.
func checkSource(s source, opt Options) Result {
	key, keyed := campaign.Key{}, false
	if opt.Cache != nil {
		key, keyed = cacheKey(s.digest, opt)
	}
	if keyed {
		var cached Result
		if ok, _ := opt.Cache.Get(key, &cached); ok {
			cached.Cached = true
			return cached
		}
	}
	res := s.load().check(opt, s.siblings)
	if keyed && res.Verdict != "" {
		_ = opt.Cache.Put(key, res) // sticky error surfaced via Store.Err
	}
	return res
}

// cacheKey addresses one two-run check of the program whose source text has
// the given digest in the campaign cache. Every result-relevant option is
// folded into the key — including the seed (it derives the secret pair) and
// any explicit secret images — so a hit is bit-identical to the fresh check
// by construction. ok is false only if the options fail to serialize, in
// which case the check runs uncached.
func cacheKey(digest string, opt Options) (campaign.Key, bool) {
	fp, err := json.Marshal(struct {
		Analysis         analysis.Options
		Seed             int64
		SecretA, SecretB []byte
		Regions          []sim.Region
		Watchdog         uint64
		ObserveWatchdog  bool
	}{opt.Analysis, opt.Seed, opt.SecretA, opt.SecretB, opt.Regions, opt.WatchdogCycles, opt.ObserveWatchdog})
	if err != nil {
		return campaign.Key{}, false
	}
	return campaign.Key{
		Check:      CheckSchema,
		Kind:       "verify",
		ProgDigest: digest,
		Policy:     opt.Policy.Normalize().String(),
		Options:    string(fp),
		Model:      diffcheck.ModelFingerprint(opt.Policy),
	}, true
}

// Check derives the static contract of prog under the policy, executes prog
// twice on secret-differing data images, and classifies the observable
// difference against the contract (see Verdicts).
func Check(prog *asm.Program, opt Options) Result {
	return prepare(prog, opt).check(opt, new(campaign.Siblings[viewKey, *views]))
}

// prepared is the policy-free half of a two-run check of one program: its
// contract before the policy stamp, the two secret images and the program
// patched with each, or the error that ends every check of the program.
// Analysis, Seed, SecretA and SecretB are the options it depends on; the
// checks of every policy may share it, because none modifies it.
type prepared struct {
	contract     *Contract // nil when derivation failed
	a, b         []byte
	progA, progB *asm.Program
	fail         string // the Diff of an error verdict, "" when the check can run
}

// viewKey is every input of a prepared check's two runs except the
// pointer-auth mode: the policy's gate set (policy.ControlPoint.Gates),
// which decides the machine and whether the view hides addresses, the
// extra regions, the watchdog and its reading, and whether a metrics sink
// wants the runs' snapshots.
type viewKey struct {
	gates    policy.ControlPoint
	regions  string
	watchdog uint64
	observe  bool
	metrics  bool
}

// viewKey is the view key of a check with o.
func (o Options) viewKey() viewKey {
	return viewKey{gates: o.Policy.Gates(), regions: fmt.Sprint(o.Regions), watchdog: o.WatchdogCycles,
		observe: o.ObserveWatchdog, metrics: o.MetricsSink != nil}
}

// views are the two runs of a check that executed no auth whose tag
// mismatched. The mode is read only on a mismatch, so every check of the
// prepared program with the same viewKey would have seen the same views:
// it takes them, and fresh copies of snaps, runs A's and B's snapshots as
// they were before the witness's own sink saw them (none without a sink).
type views struct {
	a, b  View
	snaps []*obs.Snapshot
}

// prepareSource assembles src and prepares its check.
func prepareSource(src string, opt Options) *prepared {
	p, err := asm.Assemble(src)
	if err != nil {
		return &prepared{fail: "assemble: " + err.Error()}
	}
	return prepare(p, opt)
}

// prepare derives prog's contract and the images the two runs vary.
func prepare(prog *asm.Program, opt Options) *prepared {
	c, err := derive(prog, opt.Analysis)
	if err != nil {
		return &prepared{fail: "derive: " + err.Error()}
	}
	return withImages(prog, c, opt)
}

// withImages prepares the check of prog, whose policy-free contract is c,
// with opt's secret images, or the seed's pair when it has none.
func withImages(prog *asm.Program, c *Contract, opt Options) *prepared {
	pp := &prepared{contract: c}

	// The varied bytes must live inside the loaded data image, or the two
	// machines would not actually differ.
	target, ok := patchableRange(prog, c.SecretRanges)
	if !ok {
		pp.fail = "no secret range inside the data segment to vary"
		return pp
	}
	n := int(target.End - target.Start)
	a, b := opt.SecretA, opt.SecretB
	if a == nil && b == nil {
		a, b = diffcheck.SecretPair(opt.Seed, n)
	}
	if len(a) > n {
		a = a[:n]
	}
	if len(b) > n {
		b = b[:n]
	}
	if bytes.Equal(a, b) {
		pp.fail = "secret images are identical; two-run check is vacuous"
		return pp
	}
	pp.a, pp.b = a, b
	pp.progA, pp.progB = patched(prog, target, a), patched(prog, target, b)
	return pp
}

// check runs the two views under opt's policy, or takes them from a
// pointer-auth sibling's clean runs in siblings, and classifies them
// against the contract stamped for that policy.
func (pp *prepared) check(opt Options, siblings *campaign.Siblings[viewKey, *views]) Result {
	res := Result{Seed: opt.Seed, Policy: opt.Policy.Normalize()}
	if pp.contract != nil {
		res.Contract = pp.contract.stamped(opt.Policy)
	}
	if pp.fail != "" {
		res.Verdict = VerdictError
		res.Diff = pp.fail
		return res
	}
	c := res.Contract
	res.SecretA = append([]byte(nil), pp.a...)
	res.SecretB = append([]byte(nil), pp.b...)

	viewA, viewB, fail := pp.runs(opt, siblings)
	if fail != "" {
		res.Verdict = VerdictError
		res.Diff = fail
		return res
	}
	res.CyclesA, res.CyclesB = viewA.Cycles, viewB.Cycles

	res.Channels, res.Diff = DiffViews(viewA, viewB)
	if len(res.Channels) == 0 {
		if c.Empty() {
			res.Verdict = VerdictClean
		} else {
			res.Verdict = VerdictImprecise
		}
		return res
	}
	for _, ch := range res.Channels {
		if !c.Licenses(ch) {
			res.Verdict = VerdictUnsound
			res.Diff = fmt.Sprintf("unlicensed %s difference: %s", ch, res.Diff)
			return res
		}
	}
	res.Verdict = VerdictLicensed
	return res
}

// runs returns the views of runs A and B under opt, or why a run failed. A
// pointer-auth sibling's clean runs in siblings serve them without
// simulating; runs that are clean themselves are left there for the
// siblings.
func (pp *prepared) runs(opt Options, siblings *campaign.Siblings[viewKey, *views]) (a, b View, fail string) {
	key := opt.viewKey()
	if v, ok := siblings.Get(key); ok {
		for _, s := range v.snaps {
			opt.MetricsSink(s.Clone())
		}
		return v.a, v.b, ""
	}
	var snaps []*obs.Snapshot
	sink := opt.MetricsSink
	if sink != nil {
		sink = func(s *obs.Snapshot) { snaps = append(snaps, s.Clone()); opt.MetricsSink(s) }
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = opt.Policy
	if opt.WatchdogCycles > 0 {
		cfg.WatchdogCycles = opt.WatchdogCycles
	}
	obfuscated := key.gates.Obfuscate
	a, cleanA, err := runView(pp.progA, cfg, opt.Regions, obfuscated, opt.ObserveWatchdog, sink)
	if err != nil {
		return View{}, View{}, "run A: " + err.Error()
	}
	b, cleanB, err := runView(pp.progB, cfg, opt.Regions, obfuscated, opt.ObserveWatchdog, sink)
	if err != nil {
		return View{}, View{}, "run B: " + err.Error()
	}
	if cleanA && cleanB {
		siblings.Put(key, &views{a: a, b: b, snaps: snaps})
	}
	return a, b, ""
}

// patchableRange returns the first secret range that lies fully inside the
// program's data segment.
func patchableRange(p *asm.Program, ranges []analysis.Range) (analysis.Range, bool) {
	dataEnd := p.DataBase + uint64(len(p.Data))
	for _, r := range ranges {
		if r.Start >= p.DataBase && r.End <= dataEnd && r.End > r.Start {
			return r, true
		}
	}
	return analysis.Range{}, false
}

// patched returns a copy of p whose data image carries img at the start of
// range r. Only the Data slice is copied; all other program state is shared
// read-only.
func patched(p *asm.Program, r analysis.Range, img []byte) *asm.Program {
	q := *p
	q.Data = append([]byte(nil), p.Data...)
	copy(q.Data[r.Start-p.DataBase:], img)
	return &q
}

// testHookRun, when set, is called once per timed machine a check builds:
// tests count with it the runs that pointer-auth siblings share.
var testHookRun func()

// runView executes the program once and returns the adversary's view of the
// run, and whether the run executed no auth whose tag mismatched. Watchdog
// and model-error stops are check failures, not observations — unless
// observeWatchdog turns the watchdog into the observation horizon.
func runView(p *asm.Program, cfg sim.Config, regions []sim.Region, obfuscated, observeWatchdog bool, metricsSink func(*obs.Snapshot)) (View, bool, error) {
	if testHookRun != nil {
		testHookRun()
	}
	m, err := sim.NewMachineWithRegions(cfg, p, regions)
	if err != nil {
		return View{}, false, err
	}
	// The view holds only values copied out of the machine, so a later run
	// may rebuild it.
	defer m.Release()
	var hub *obs.Hub
	if metricsSink != nil {
		hub = obs.NewHub(nil, true)
		m.SetObserver(hub)
		m.EnablePerf()
	}
	// The hub reads no bus event, so the adversary's collector takes the
	// bus observer slot.
	col := &busCollector{}
	m.Bus.SetObserver(col)
	simRes, runErr := m.Run()
	if hub != nil {
		metricsSink(m.Metrics(hub, nil))
	}
	if runErr != nil && !(observeWatchdog && simRes.Reason == sim.StopWatchdog) {
		return View{}, false, runErr
	}
	v := View{Cycles: simRes.Cycles, Reason: simRes.Reason.String()}
	stop := sim.StopCycle(simRes)
	for _, e := range col.events {
		if e.Cycle > stop {
			continue // scheduled past the stop: never actually happened
		}
		ev := ViewEvent{Cycle: e.Cycle, Addr: e.Addr, Kind: bus.Kind(e.A), Done: e.B}
		if obfuscated {
			ev.Addr = 0 // re-mapped addresses carry no information
		}
		v.Events = append(v.Events, ev)
	}
	return v, simRes.Core.AuthMismatches == 0, nil
}

// DiffViews compares two adversary views and returns the channels on which
// they differ (canonical order) plus a description of the first difference
// found. Address differences at the same trace position are the addr
// channel; every structural difference — transaction count, per-transaction
// cycles or kind, total run length, stop reason — is the timing channel.
func DiffViews(a, b View) ([]Channel, string) {
	var addrDiff, timingDiff string
	if a.Cycles != b.Cycles {
		timingDiff = fmt.Sprintf("total cycles %d vs %d", a.Cycles, b.Cycles)
	}
	if timingDiff == "" && a.Reason != b.Reason {
		timingDiff = fmt.Sprintf("stop reason %s vs %s", a.Reason, b.Reason)
	}
	if timingDiff == "" && len(a.Events) != len(b.Events) {
		timingDiff = fmt.Sprintf("%d bus transactions vs %d", len(a.Events), len(b.Events))
	}
	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	for i := 0; i < n; i++ {
		ea, eb := a.Events[i], b.Events[i]
		if addrDiff == "" && ea.Addr != eb.Addr {
			addrDiff = fmt.Sprintf("bus txn %d address %#x vs %#x", i, ea.Addr, eb.Addr)
		}
		if timingDiff == "" && (ea.Cycle != eb.Cycle || ea.Done != eb.Done || ea.Kind != eb.Kind) {
			timingDiff = fmt.Sprintf("bus txn %d shape (cycle %d kind %v) vs (cycle %d kind %v)",
				i, ea.Cycle, ea.Kind, eb.Cycle, eb.Kind)
		}
		if addrDiff != "" && timingDiff != "" {
			break
		}
	}
	var chans []Channel
	desc := ""
	if addrDiff != "" {
		chans = append(chans, ChannelAddr)
		desc = addrDiff
	}
	if timingDiff != "" {
		chans = append(chans, ChannelTiming)
		if desc == "" {
			desc = timingDiff
		}
	}
	return chans, desc
}
