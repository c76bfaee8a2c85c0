package main

import (
	"fmt"

	"authpoint/internal/analysis"
	"authpoint/internal/asm"
	"authpoint/internal/contract"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/diffcheck"
	"authpoint/internal/interp"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// Event counts of one simulation, read from public stats.
const (
	evCycles = iota
	evInsts
	evSquashed
	evSkipped
	evUopHits
	evUopLookups
	evWakeVisits
	evFetches
	evWritebacks
	evCtrHits
	evCtrLookups
	evTreeNodeFetches
	evL1Acc
	evL1DAcc
	evL1DMiss
	evL2Acc
	evL2Miss
	evDRAMAcc
	evDRAMHits
	evBusBusy
	numEv
)

type counts [numEv]float64

func (c *counts) add(o counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// machineCounts reads m's event counts after a run that ended with res.
// The perf counters and cache stats cover only the window since EnablePerf
// and ResetCacheStats; window scales them up to the whole run.
func machineCounts(m *sim.Machine, res sim.Result, perf *obs.Perf, window float64) counts {
	var c counts
	c[evCycles] = float64(res.Cycles)
	c[evInsts] = float64(res.Insts)
	c[evSquashed] = float64(res.Core.Squashed)
	c[evFetches] = float64(res.Sec.Fetches)
	c[evWritebacks] = float64(res.Sec.Writebacks)
	c[evCtrHits] = float64(res.Sec.CtrHits)
	c[evCtrLookups] = float64(res.Sec.CtrHits + res.Sec.CtrMisses)
	c[evTreeNodeFetches] = float64(res.Sec.TreeNodeFetch)
	d := m.DRAM.Stats()
	c[evDRAMAcc] = float64(d.Hits + d.Empties + d.Conflicts)
	c[evDRAMHits] = float64(d.Hits)
	c[evBusBusy] = float64(m.Bus.BusyCycles())
	l1i, l1d, l2 := m.MS.Caches()
	si, sd, s2 := l1i.Stats(), l1d.Stats(), l2.Stats()
	for i, v := range map[int]uint64{
		evSkipped:    perf.SkipCycles,
		evUopHits:    perf.UopHits,
		evUopLookups: perf.UopHits + perf.UopMisses,
		evWakeVisits: perf.ConsumerVisits,
		evL1Acc:      si.Hits + si.Misses + sd.Hits + sd.Misses,
		evL1DAcc:     sd.Hits + sd.Misses,
		evL1DMiss:    sd.Misses,
		evL2Acc:      s2.Hits + s2.Misses,
		evL2Miss:     s2.Misses,
	} {
		c[i] = window * float64(v)
	}
	return c
}

// tracedCell is what the traced phase learns about one cell: its span, the
// cost of one call of each component on the cell's program, how many of
// each call the cell itself made, and the events of one simulation.
type tracedCell struct {
	cellNs float64
	// One call each, ns (0 if not timed). runCycles are the cycles runNs
	// covered.
	asmNs, genNs, buildNs, runNs, oracleNs, digestNs, deriveNs float64
	runCycles                                                  float64
	// Calls the cell made. simScale is how many simulations' worth of ev
	// the cell ran (a campaign cell's cycles over its shadow run's).
	asms, gens, builds, oracles, digests, derives, gets, puts float64
	simScale                                                  float64
	// Protected and plaintext-loaded lines of one machine for the program.
	lines, loaded float64
	tree, auth    bool
	ev            counts
}

// fail closes the cell's open spans and marks the sample failed.
func fail(t *tracer, sm sample, tc tracedCell, err error) (sample, tracedCell) {
	for len(t.open) > 0 {
		t.end()
	}
	sm.err = err.Error()
	return sm, tc
}

// traceCell re-drives sweep cell i with the public calls harness.Measure
// makes, each in its own span, then times the oracle, digest and contract
// derivation of the same program as shadow calls.
func (s *sweepInst) traceCell(i int, t *tracer) (sample, tracedCell) {
	spec := s.specs[i]
	pt := spec.Config.ControlPoint()
	sm := sample{index: i, row: row{Kernel: spec.Workload.Name, Policy: pt.String()}}
	tc := tracedCell{builds: 1, simScale: 1, tree: spec.Config.Sec.UseTree, auth: pt.Authenticate}
	if s.progs == nil {
		s.progs = map[string]*asm.Program{}
	}
	var err error
	t.begin("cell", i, 1)
	p := s.progs[spec.Workload.Name]
	if p == nil {
		// The harness assembles each image once per process; so does the
		// re-drive.
		tc.asmNs = t.time("asm.Assemble", i, 1, func() { p, err = asm.Assemble(spec.Workload.Source) })
		tc.asms = 1
		if err != nil {
			return fail(t, sm, tc, err)
		}
		s.progs[spec.Workload.Name] = p
	}
	warm := spec.WarmupInsts + spec.Workload.InitInsts
	cfg := spec.Config
	cfg.MaxInsts = warm
	var m *sim.Machine
	tc.buildNs = t.time("sim.NewMachine", i, 1, func() { m, err = sim.NewMachine(cfg, p) })
	if err != nil {
		return fail(t, sm, tc, err)
	}
	var r1, r2 sim.Result
	t.time("sim.Run.warmup", i, 1, func() { r1, err = m.Run() })
	if err == nil && r1.Reason != sim.StopMaxInsts {
		err = fmt.Errorf("warm-up stopped early: %v", r1.Reason)
	}
	if err != nil {
		return fail(t, sm, tc, err)
	}
	var perf *obs.Perf
	t.time("sim.attach", i, 1, func() {
		m.MS.ResetCacheStats()
		m.SetObserver(obs.NewHub(nil, true))
		perf = m.EnablePerf()
	})
	m.Cfg.MaxInsts = warm + spec.MeasureInsts
	tc.runNs = t.time("sim.Run.measure", i, 1, func() { r2, err = m.Run() })
	if err == nil && r2.Reason != sim.StopMaxInsts {
		err = fmt.Errorf("measured window stopped early: %v", r2.Reason)
	}
	if err != nil {
		return fail(t, sm, tc, err)
	}
	tc.cellNs = float64(t.end())
	window := r2.Cycles - r1.Cycles
	sm.row.Cycles, sm.row.Insts = window, r2.Insts-r1.Insts
	sm.hostNs, sm.simCycles = tc.cellNs, float64(r2.Cycles)
	tc.runCycles = float64(window)
	tc.ev = machineCounts(m, r2, perf, ratio(float64(r2.Cycles), float64(window)))
	tc.lines, tc.loaded = progLines(p, cfg)

	t.begin("shadow", i, 2)
	ranges := digestRanges(p, cfg.StackB)
	tc.digestNs = t.time("sim.ArchDigest", i, 2, func() { m.ArchDigest(ranges...) })
	tc.oracleNs = t.time("interp.oracle", i, 2, func() { runOracle(p, pt, r2.Insts, ranges) })
	tc.deriveNs = t.time("contract.Derive", i, 2, func() { _, err = contract.Derive(p, pt, analysis.Options{}) })
	t.end()
	if err != nil {
		sm.err = "contract.Derive: " + err.Error()
	}
	return sm, tc
}

// tamperMaxInsts mirrors the instruction bound diffcheck puts on tampered
// runs.
const tamperMaxInsts = 100_000

// traceCell runs fuzz cell i as the sweep does, through diffcheck.CheckSeed
// with the pass's oracle memo, then times its components as shadow calls.
func (f *fuzzInst) traceCell(i int, t *tracer) (sample, tracedCell) {
	c := f.cells[i]
	opt := diffcheck.Options{Policy: c.Policy, Tamper: c.Tamper, TamperSite: c.Site, Oracle: f.memo}
	misses := f.memo.Misses()
	var res diffcheck.Result
	cellNs := t.time("diffcheck.CheckSeed", i, 1, func() { res, _ = diffcheck.CheckSeed(c.Seed, opt) })
	sm := sample{
		index:  i,
		row:    row{Seed: res.Seed, Policy: c.Policy.String(), Site: string(res.Site), Verdict: string(res.Verdict), Cycles: res.Cycles},
		hostNs: cellNs, simCycles: float64(res.Cycles),
	}
	tc := tracedCell{cellNs: cellNs, gens: 1, asms: 1, builds: 1, digests: 1,
		oracles: float64(f.memo.Misses() - misses)}
	cfg := sim.DefaultConfig()
	cfg.Policy = c.Policy
	if c.Tamper {
		cfg.MaxInsts = tamperMaxInsts
		cfg.Sec.UseTree = c.Site == diffcheck.SiteTree
	}
	if err := shadow(t, i, func() string { return diffcheck.GenProgram(c.Seed) }, cfg, &tc); err != nil {
		sm.err = "shadow: " + err.Error()
	}
	tc.simScale = ratio(float64(res.Cycles), tc.runCycles)
	return sm, tc
}

// traceCell runs verify cell i through contract.CheckSeed against the
// pass's result store, then times its components as shadow calls.
func (v *verifyInst) traceCell(i int, t *tracer) (sample, tracedCell) {
	c := v.cells[i]
	hits, puts := v.store.Hits(), v.store.Puts()
	var res contract.Result
	cellNs := t.time("contract.CheckSeed", i, 1, func() {
		res, _ = contract.CheckSeed(c.Seed, contract.Options{Policy: c.Policy, Cache: v.store})
	})
	cycles := res.CyclesA + res.CyclesB
	sm := sample{
		index:  i,
		row:    row{Seed: res.Seed, Policy: c.Policy.String(), Verdict: string(res.Verdict), Cycles: cycles},
		hostNs: cellNs, simCycles: float64(cycles),
	}
	tc := tracedCell{cellNs: cellNs, gens: 1, asms: 1, derives: 1, builds: 2,
		gets: float64(v.store.Hits() - hits), puts: float64(v.store.Puts() - puts)}
	cfg := sim.DefaultConfig()
	cfg.Policy = c.Policy
	if err := shadow(t, i, func() string { return diffcheck.GenSecretProgram(c.Seed) }, cfg, &tc); err != nil {
		sm.err = "shadow: " + err.Error()
	}
	tc.simScale = ratio(float64(cycles), tc.runCycles)
	return sm, tc
}

// shadow times, outside the cell's span, each component call a campaign
// cell makes on its program: generation, assembly, the in-order oracle,
// contract derivation, machine build, the timed run and the state digest.
func shadow(t *tracer, i int, gen func() string, cfg sim.Config, tc *tracedCell) error {
	t.begin("shadow", i, 2)
	defer t.end()
	var src string
	tc.genNs = t.time("gen", i, 2, func() { src = gen() })
	var p *asm.Program
	var err error
	tc.asmNs = t.time("asm.Assemble", i, 2, func() { p, err = asm.Assemble(src) })
	if err != nil {
		return err
	}
	ranges := digestRanges(p, cfg.StackB)
	tc.oracleNs = t.time("interp.oracle", i, 2, func() { runOracle(p, cfg.Policy, diffcheck.DefaultMaxOracleInsts, ranges) })
	tc.deriveNs = t.time("contract.Derive", i, 2, func() { _, err = contract.Derive(p, cfg.Policy, analysis.Options{}) })
	if err != nil {
		return err
	}
	var m *sim.Machine
	tc.buildNs = t.time("sim.NewMachine", i, 2, func() { m, err = sim.NewMachine(cfg, p) })
	if err != nil {
		return err
	}
	perf := m.EnablePerf()
	var res sim.Result
	tc.runNs = t.time("sim.Run", i, 2, func() { res, err = m.Run() })
	if err != nil {
		return err
	}
	tc.digestNs = t.time("sim.ArchDigest", i, 2, func() { m.ArchDigest(ranges...) })
	tc.runCycles = float64(res.Cycles)
	tc.ev = machineCounts(m, res, perf, 1)
	tc.lines, tc.loaded = progLines(p, cfg)
	tc.tree, tc.auth = cfg.Sec.UseTree, cfg.Policy.Normalize().Authenticate
	return nil
}

// progLines counts the lines sim.NewMachine protects for p (text, data and
// stack regions) and, of those, the text and data lines LoadPlain fills.
func progLines(p *asm.Program, cfg sim.Config) (protected, loaded float64) {
	lb := uint64(cfg.Mem.L2LineB)
	lines := func(base, n uint64) float64 { return float64(((base+n+lb-1)&^(lb-1) - base&^(lb-1)) / lb) }
	text := lines(p.TextBase, uint64(len(p.TextBytes())))
	data := lines(p.DataBase, uint64(max(len(p.Data), 1)))
	loaded = text
	if len(p.Data) > 0 {
		loaded += data
	}
	return text + data + float64(cfg.StackB/lb), loaded
}

// digestRanges are the memory windows differential digests cover: the
// data segment and the stack.
func digestRanges(p *asm.Program, stackB uint64) []interp.MemRange {
	var out []interp.MemRange
	if len(p.Data) > 0 {
		out = append(out, interp.MemRange{Start: p.DataBase, Len: uint64(len(p.Data))})
	}
	return append(out, interp.MemRange{Start: sim.StackBase, Len: stackB})
}

// runOracle runs the in-order oracle on p for at most maxInsts
// instructions under pt's pointer-authentication mode and digests its
// final state, as a differential check's oracle leg does.
func runOracle(p *asm.Program, pt policy.ControlPoint, maxInsts uint64, ranges []interp.MemRange) [32]byte {
	o := interp.New(p)
	k := pt.Knobs()
	switch {
	case k.PACFault:
		o.PACMode = pacmac.ModeFaultAuth
	case k.PAC:
		o.PACMode = pacmac.ModePoison
	}
	o.Run(maxInsts)
	return o.StateDigest(ranges...)
}

// predict is the cost model: each layer's predicted ns for one cell is the
// cell's event count for that layer times the layer's cost per event.
func (lc layerCosts) predict(tc tracedCell) map[string]float64 {
	seal, load, verify, mac := lc.Seal, lc.Load, lc.HMACLine, lc.HMACLine
	if tc.tree {
		seal, load, verify, mac = lc.SealTree, lc.LoadTree, lc.TreeVerify, lc.TreeSetLeaf
	}
	if !tc.auth {
		verify = 0 // decrypt-only fetches skip verification
	}
	e, k := tc.ev, tc.simScale
	return map[string]float64{
		"asm":           tc.asms * tc.asmNs,
		"gen":           tc.gens * tc.genNs,
		"oracle":        tc.oracles * tc.oracleNs,
		"digest":        tc.digests * tc.digestNs,
		"derive":        tc.derives * tc.deriveNs,
		"campaign":      tc.gets*lc.Get + tc.puts*lc.Put,
		"secmem.setup":  tc.builds * (tc.lines*seal + tc.loaded*load),
		"pipeline":      k * (e[evCycles] - e[evSkipped]) * lc.PipeCycle,
		"secmem.crypto": k * (e[evFetches]*(lc.CTRLine+verify) + e[evWritebacks]*(lc.CTRLine+mac)),
		"dram+bus":      k * (e[evDRAMAcc]*lc.DRAMAccess + (e[evDRAMAcc]+e[evWritebacks])*lc.BusTxn),
		"cache":         k * (e[evL1Acc]*lc.L1Access + e[evL2Acc]*lc.L2Access),
	}
}

// layerReport folds the traced cells into the per-layer metrics that come
// from spans and event counts, plus the cost model's per-layer prediction
// (ms, summed over the cells).
func layerReport(tcs []tracedCell, lc layerCosts) (vals, model map[string]float64) {
	vals, model = map[string]float64{}, map[string]float64{}
	var ev counts
	var cellNs, buildNs, runNs, runCycles, lines, predicted float64
	var builds, oracles, digests, derives, asms []float64
	for _, tc := range tcs {
		ev.add(tc.ev)
		cellNs += tc.cellNs
		buildNs += tc.builds * tc.buildNs
		runNs += tc.runNs
		runCycles += tc.runCycles
		lines += tc.lines
		builds = append(builds, tc.buildNs/1e6)
		oracles = append(oracles, tc.oracleNs/1e6)
		digests = append(digests, tc.digestNs/1e6)
		derives = append(derives, tc.deriveNs/1e6)
		if tc.asmNs > 0 { // sweeps assemble each image once
			asms = append(asms, tc.asmNs/1e6)
		}
		for layer, ns := range lc.predict(tc) {
			model[layer] += ns / 1e6
			predicted += ns
		}
	}
	n := float64(len(tcs))
	vals["sim.new_machine_ms_p50"] = median(builds)
	vals["sim.new_machine_share"] = ratio(buildNs, cellNs)
	vals["sim.protected_lines"] = ratio(lines, n)
	vals["sim.run_ns_per_cycle"] = ratio(runNs, runCycles)
	vals["pipeline.ipc"] = ratio(ev[evInsts], ev[evCycles])
	vals["pipeline.squash_per_kinst"] = 1000 * ratio(ev[evSquashed], ev[evInsts])
	vals["fastpath.uop_hit_ratio"] = ratio(ev[evUopHits], ev[evUopLookups])
	vals["fastpath.skip_cycle_frac"] = ratio(ev[evSkipped], ev[evCycles])
	vals["fastpath.wakeup_visits_per_inst"] = ratio(ev[evWakeVisits], ev[evInsts])
	vals["secmem.fetches_per_kcycle"] = 1000 * ratio(ev[evFetches], ev[evCycles])
	vals["secmem.writebacks_per_kcycle"] = 1000 * ratio(ev[evWritebacks], ev[evCycles])
	vals["secmem.ctr_hit_ratio"] = ratio(ev[evCtrHits], ev[evCtrLookups])
	vals["secmem.tree_node_fetches_per_fetch"] = ratio(ev[evTreeNodeFetches], ev[evFetches])
	vals["cache.l1d_miss_ratio"] = ratio(ev[evL1DMiss], ev[evL1DAcc])
	vals["cache.l2_miss_ratio"] = ratio(ev[evL2Miss], ev[evL2Acc])
	vals["dram.row_hit_ratio"] = ratio(ev[evDRAMHits], ev[evDRAMAcc])
	vals["bus.busy_frac"] = ratio(ev[evBusBusy], ev[evCycles])
	vals["interp.oracle_ms_p50"] = median(oracles)
	vals["diffcheck.digest_ms_p50"] = median(digests)
	vals["contract.derive_ms_p50"] = median(derives)
	vals["asm.assemble_ms_p50"] = median(asms)
	vals["model.explained_frac"] = ratio(predicted, cellNs)
	vals["model.residual_ms"] = ratio(cellNs-predicted, n) / 1e6
	return vals, model
}
