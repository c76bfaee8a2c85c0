package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"authpoint/internal/asm"
	"authpoint/internal/campaign"
	"authpoint/internal/contract"
	"authpoint/internal/diffcheck"
	"authpoint/internal/experiments"
	"authpoint/internal/harness"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
	"authpoint/internal/workload"
)

// row names one cell and records its simulated outcome: the unit the golden
// files pin. Sweeps fill Kernel, Policy, Cycles and Insts (the measured
// window); campaigns fill Seed, Policy, Site, Verdict and Cycles (the
// cell's total simulated cycles).
type row struct {
	Kernel  string `json:"kernel,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Policy  string `json:"policy"`
	Site    string `json:"site,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Cycles  uint64 `json:"cycles"`
	Insts   uint64 `json:"insts,omitempty"`
}

func (r row) key() string { return fmt.Sprintf("%s|%d|%s|%s", r.Kernel, r.Seed, r.Policy, r.Site) }

// sample is one measured cell.
type sample struct {
	index     int // position of the cell in its pass
	row       row
	hostNs    float64
	simCycles float64 // every cycle the cell simulated, warm-up included
	err       string  // a cell that could not run
	// scale takes hostNs to the reference host (see calib.go): the
	// hostScale sample taken after the cell or its block, or 1.
	scale float64
}

// instance is one set-up workload. A pass runs every cell once, in blocks;
// the measured phase runs blocks, and passes, until its time is spent.
type instance interface {
	// newPass resets per-pass state (oracle memo, result store) and
	// returns the number of blocks in a pass.
	newPass() (int, error)
	// runBlock measures block b of the current pass, untraced, and returns
	// the time spent in its campaign or sweep call. A non-nil scale is
	// called after each sweep cell, or after a campaign block, for the
	// samples' scale; the time it takes is not counted.
	runBlock(b int, scale func() float64) ([]sample, time.Duration)
	// traceOrder lists cell indexes in the order the traced phase visits
	// them; traceCell re-runs one cell with spans and shadow calls.
	traceOrder() []int
	traceCell(i int, t *tracer) (sample, tracedCell)
	// memoRatio is the oracle memo's hit ratio over the untraced passes.
	memoRatio() float64
	// payload is a real result of the workload, for the store benchmark.
	payload() any
	close() error
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, why string
	// sweep workloads ignore the seed, so their golden rows apply to every
	// run; campaign golden rows apply at defaultSeed only.
	sweep bool
	setup func(c config) (instance, error)
	// invariant checks a campaign row where no golden row applies.
	invariant func(row) string
}

const defaultSeed = 1

var workloads = []workloadDef{
	{
		name:  "sweep-core",
		why:   "Fig-7 style IPC sweep of four cache-resident kernels: core pipeline and uop cache dominate, machine set-up is small",
		sweep: true,
		setup: sweepSetup(sweepSpec{
			kernels: []string{"bzip2x", "gapx", "wupwisex", "lucasx"}, toy: "wupwisex",
			warmup: 30_000, measure: 960_000,
		}),
	},
	{
		name:  "sweep-mem",
		why:   "Fig-7 INT trio with 1-2 MB images and IPC 0.02-0.19: idle-cycle fast-forward, per-miss decrypt and verify, DRAM and bus",
		sweep: true,
		setup: sweepSetup(sweepSpec{
			kernels: []string{"mcfx", "twolfx", "gccx"}, toy: "gccx",
			warmup: harness.DefaultWarmup, measure: harness.DefaultMeasure,
		}),
	},
	{
		name:  "sweep-tree",
		why:   "Fig-12 MAC-tree study: per-line tree path recomputation in machine set-up dominates host time",
		sweep: true,
		setup: sweepSetup(sweepSpec{
			kernels: []string{"gccx", "swimx", "artx", "lucasx"}, toy: "wupwisex",
			warmup: harness.DefaultWarmup, measure: harness.DefaultMeasure, fig12: true,
		}),
	},
	{
		name:      "fuzz-tamper",
		why:       "differential fuzz campaign over the 27-point lattice with every tamper site: thousands of short programs, set-up and digests dominate, oracle memo used",
		setup:     fuzzSetup,
		invariant: fuzzInvariant,
	},
	{
		name:      "verify-cache",
		why:       "two-run contract campaign against an empty result store: two machine builds and a taint contract per cell, every result written to the store",
		setup:     verifySetup,
		invariant: verifyInvariant,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// --- sweeps -----------------------------------------------------------------

// sweepSpec is one normalized-IPC sweep: kernels x (baseline + policies).
type sweepSpec struct {
	kernels         []string
	toy             string // the one kernel the smoke test sweeps
	warmup, measure uint64
	// fig12 runs experiments.Fig12 (MAC tree, its own policies and scaled
	// windows); otherwise experiments.RunSweep over PerfPolicies.
	fig12 bool
}

type sweepInst struct {
	spec     sweepSpec
	policies []policy.ControlPoint
	ws       []workload.Workload
	specs    []harness.Spec          // the cells of the last pass, by index
	progs    map[string]*asm.Program // images the traced phase assembled
	last     any
}

func sweepSetup(spec sweepSpec) func(config) (instance, error) {
	return func(c config) (instance, error) {
		s := &sweepInst{spec: spec, policies: experiments.PerfPolicies}
		names := spec.kernels
		if c.toy {
			names = []string{spec.toy}
			s.spec.warmup, s.spec.measure = 1_000, 2_000
			s.policies = s.policies[:1]
		}
		for _, n := range names {
			w, ok := workload.ByName(n)
			if !ok {
				return nil, fmt.Errorf("unknown kernel %q", n)
			}
			// Assembling each image once validates it; the harness keeps its
			// own process-wide image cache for the cells.
			if _, err := asm.Assemble(w.Source); err != nil {
				return nil, fmt.Errorf("%s: %w", n, err)
			}
			s.ws = append(s.ws, w)
		}
		return s, nil
	}
}

func (s *sweepInst) newPass() (int, error) { return 1, nil }

func (s *sweepInst) runBlock(_ int, scale func() float64) ([]sample, time.Duration) {
	var out []sample
	var scaling time.Duration
	s.specs = nil
	// A fresh runner per pass: its baseline memo must not serve a later
	// pass, and one worker keeps the run on one core.
	r := &harness.Runner{Parallelism: 1, OnProgress: func(p harness.Progress) {
		o := p.Outcome
		sm := sample{
			index: o.Index,
			row: row{Kernel: o.Spec.Workload.Name, Policy: o.Spec.Config.ControlPoint().String(),
				Cycles: o.Measurement.Cycles, Insts: o.Measurement.Insts},
			hostNs:    float64(o.Wall),
			simCycles: float64(o.Measurement.Result.Cycles),
			scale:     1,
		}
		if o.Err != nil {
			sm.err = o.Err.Error()
		}
		// With one worker the next cell starts only when this callback
		// returns, so the sample times the host between cells.
		if scale != nil {
			t := time.Now()
			sm.scale = scale()
			scaling += time.Since(t)
		}
		out = append(out, sm)
		for len(s.specs) <= o.Index {
			s.specs = append(s.specs, harness.Spec{})
		}
		s.specs[o.Index] = o.Spec
		s.last = o.Measurement
	}}
	p := experiments.Params{Warmup: s.spec.warmup, Measure: s.spec.measure, Workloads: s.ws, Runner: r}
	var err error
	start := time.Now()
	if s.spec.fig12 {
		_, err = experiments.Fig12(p)
	} else {
		_, err = experiments.RunSweep("authperf", p, s.policies, nil)
	}
	d := time.Since(start) - scaling
	if err != nil && len(out) == 0 {
		out = append(out, sample{err: err.Error()})
	}
	return out, d
}

// traceOrder strides across the pass so any prefix covers every kernel.
func (s *sweepInst) traceOrder() []int { return strided(len(s.specs)) }

func (s *sweepInst) memoRatio() float64 { return 0 }
func (s *sweepInst) payload() any       { return s.last }
func (s *sweepInst) close() error       { return nil }

// strided returns a permutation of [0, n) that visits indexes a fixed
// stride apart, the stride coprime with n and near n/phi.
func strided(n int) []int {
	step := max(1, n*618/1000)
	for gcd(step, n) != 1 {
		step++
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * step % n
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// --- campaigns --------------------------------------------------------------

// seedRange returns n consecutive seeds starting at lo.
func seedRange(lo int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

// lattice is the policy set of the campaigns: the 27-point lattice, or
// three of its points for the smoke test.
func lattice(c config) []policy.ControlPoint {
	if c.toy {
		return policy.Lattice()[:3]
	}
	return policy.Lattice()
}

// ledgerSweep runs one campaign block through its sweep with an in-memory
// telemetry ledger and turns the ledger's records into samples, all with
// the scale sampled after the block.
func ledgerSweep(base int, scale func() float64, sweep func(so *diffcheck.SweepObs) error) ([]sample, time.Duration) {
	var buf bytes.Buffer
	led := telemetry.NewLedger(&buf)
	err := led.WriteHeader(telemetry.NewHeader("authperf", 1))
	start := time.Now()
	if err == nil {
		err = sweep(&diffcheck.SweepObs{Ledger: led})
	}
	d := time.Since(start)
	sc := 1.0
	if scale != nil {
		sc = scale()
	}
	if cerr := led.Close(); err == nil {
		err = cerr
	}
	var lf *telemetry.LedgerFile
	if err == nil {
		lf, err = telemetry.Read(&buf)
	}
	if err != nil {
		return []sample{{index: base, err: err.Error()}}, d
	}
	out := make([]sample, 0, len(lf.Records))
	for _, r := range lf.Records {
		sm := sample{
			index:     base + int(r.Seq),
			row:       row{Seed: r.Seed, Policy: r.Policy, Site: r.Site, Verdict: r.Verdict, Cycles: r.SimCycles},
			hostNs:    float64(r.HostNs),
			simCycles: float64(r.SimCycles),
			err:       r.Err,
			scale:     sc,
		}
		out = append(out, sm)
	}
	return out, d
}

// fuzzInst is the differential fuzz campaign: seeds s..s+39 untampered and
// seeds s..s+7 tampered at each site, all under every lattice point.
type fuzzInst struct {
	blocks [][]diffcheck.Cell
	starts []int // index of each block's first cell
	cells  []diffcheck.Cell
	memo   *diffcheck.OracleMemo
	// memo counts of finished passes
	hits, misses uint64
	last         any
}

func fuzzSetup(c config) (instance, error) {
	nSeeds, nTamper := 40, 8
	if c.toy {
		nSeeds, nTamper = 2, 1
	}
	pols := lattice(c)
	var untampered, tampered [][]diffcheck.Cell
	for _, s := range seedRange(c.seed, nSeeds) {
		untampered = append(untampered, diffcheck.CrossCells([]int64{s}, pols, false))
		if _, err := asm.Assemble(diffcheck.GenProgram(s)); err != nil {
			return nil, fmt.Errorf("seed %d: %w", s, err)
		}
	}
	for _, s := range seedRange(c.seed, nTamper) {
		for _, site := range diffcheck.Sites() {
			tampered = append(tampered, diffcheck.WithSite(diffcheck.CrossCells([]int64{s}, pols, true), site))
		}
	}
	// Alternate untampered and tampered blocks so that the cells measured in
	// any time budget keep the campaign's mix. Every block of a seed follows
	// its untampered block, and the memo holds all seeds, so the oracle
	// still runs once per (seed, pointer-auth mode).
	f := &fuzzInst{}
	for i := 0; i < max(len(untampered), len(tampered)); i++ {
		for _, group := range [][][]diffcheck.Cell{untampered, tampered} {
			if i < len(group) {
				f.starts = append(f.starts, len(f.cells))
				f.blocks = append(f.blocks, group[i])
				f.cells = append(f.cells, group[i]...)
			}
		}
	}
	return f, nil
}

func (f *fuzzInst) newPass() (int, error) {
	if f.memo != nil {
		f.hits += f.memo.Hits()
		f.misses += f.memo.Misses()
	}
	f.memo = diffcheck.NewOracleMemo(0)
	return len(f.blocks), nil
}

func (f *fuzzInst) runBlock(b int, scale func() float64) ([]sample, time.Duration) {
	return ledgerSweep(f.starts[b], scale, func(so *diffcheck.SweepObs) error {
		res, _, err := diffcheck.SweepObserved(context.Background(), f.blocks[b], diffcheck.Options{Oracle: f.memo}, 1, so)
		if len(res) > 0 {
			f.last = res[len(res)-1]
		}
		return err
	})
}

func (f *fuzzInst) traceOrder() []int { return identity(len(f.cells)) }

func (f *fuzzInst) memoRatio() float64 {
	h, m := f.hits+f.memo.Hits(), f.misses+f.memo.Misses()
	return ratio(float64(h), float64(h+m))
}

func (f *fuzzInst) payload() any { return f.last }
func (f *fuzzInst) close() error { return nil }

func fuzzInvariant(r row) string {
	switch diffcheck.Verdict(r.Verdict) {
	case diffcheck.VerdictOK:
		if r.Site != "" && r.Site != string(diffcheck.SiteData) {
			return "tampered cell reported ok"
		}
	case diffcheck.VerdictContained, diffcheck.VerdictDetected, diffcheck.VerdictUndetected:
		if r.Site == "" {
			return "untampered cell reported " + r.Verdict
		}
	default:
		return "verdict " + r.Verdict
	}
	if r.Cycles == 0 {
		return "no cycles simulated"
	}
	return ""
}

// verifyInst is the two-run contract campaign over seeds s..s+59 under
// every lattice point. Each pass starts from an empty result store, so every
// cell simulates and writes its result.
type verifyInst struct {
	dir    string // scratch directory holding the result stores
	blocks [][]contract.Cell
	cells  []contract.Cell
	store  *campaign.Store
	last   any
}

func verifySetup(c config) (instance, error) {
	nSeeds := 60
	if c.toy {
		nSeeds = 2
	}
	v := &verifyInst{}
	for _, s := range seedRange(c.seed, nSeeds) {
		if _, err := asm.Assemble(diffcheck.GenSecretProgram(s)); err != nil {
			return nil, fmt.Errorf("seed %d: %w", s, err)
		}
		b := contract.CrossCells([]int64{s}, lattice(c))
		v.blocks = append(v.blocks, b)
		v.cells = append(v.cells, b...)
	}
	dir, err := os.MkdirTemp(c.scratch, "stores-")
	if err != nil {
		return nil, err
	}
	v.dir = dir
	return v, v.openStore()
}

// openStore opens an empty result store in a fresh directory.
func (v *verifyInst) openStore() error {
	sdir, err := os.MkdirTemp(v.dir, "store-")
	if err != nil {
		return err
	}
	v.store, err = campaign.Open(sdir)
	return err
}

func (v *verifyInst) newPass() (int, error) {
	if v.store.Puts() > 0 {
		if err := os.RemoveAll(v.store.Dir()); err != nil {
			return 0, err
		}
		if err := v.openStore(); err != nil {
			return 0, err
		}
	}
	return len(v.blocks), nil
}

func (v *verifyInst) runBlock(b int, scale func() float64) ([]sample, time.Duration) {
	return ledgerSweep(b*len(v.blocks[0]), scale, func(so *diffcheck.SweepObs) error {
		res, _, err := contract.SweepObserved(context.Background(), v.blocks[b], contract.Options{Cache: v.store}, 1, so)
		if len(res) > 0 {
			v.last = res[len(res)-1]
		}
		if err == nil {
			err = v.store.Err()
		}
		return err
	})
}

func (v *verifyInst) traceOrder() []int  { return identity(len(v.cells)) }
func (v *verifyInst) memoRatio() float64 { return 0 }
func (v *verifyInst) payload() any       { return v.last }
func (v *verifyInst) close() error       { return os.RemoveAll(v.dir) }

func verifyInvariant(r row) string {
	switch contract.Verdict(r.Verdict) {
	case contract.VerdictClean, contract.VerdictLicensed, contract.VerdictImprecise:
	default:
		return "verdict " + r.Verdict
	}
	if r.Cycles == 0 {
		return "no cycles simulated"
	}
	return ""
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
