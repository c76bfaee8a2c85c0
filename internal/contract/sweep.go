package contract

import (
	"context"
	"time"

	"authpoint/internal/campaign"
	"authpoint/internal/diffcheck"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
)

// Cell is one unit of verification work: a generated seed checked under one
// policy.
type Cell struct {
	Seed   int64
	Policy policy.ControlPoint
}

// PairCells spreads seeds round-robin over the policies: seed i runs under
// policies[i mod len]. This is the CI smoke shape — every seed checked once,
// every policy exercised continuously — at 1/len(policies) the cost of the
// full cross product.
func PairCells(seeds []int64, pols []policy.ControlPoint) []Cell {
	out := make([]Cell, len(seeds))
	for i, s := range seeds {
		out[i] = Cell{Seed: s, Policy: pols[i%len(pols)]}
	}
	return out
}

// CrossCells is the full cross product: every seed under every policy.
func CrossCells(seeds []int64, pols []policy.ControlPoint) []Cell {
	out := make([]Cell, 0, len(seeds)*len(pols))
	for _, s := range seeds {
		for _, p := range pols {
			out = append(out, Cell{Seed: s, Policy: p})
		}
	}
	return out
}

// Finding is a cell whose verdict is a problem — unsound (the analysis
// missed a dynamic leak) or error — with the program that provoked it.
type Finding struct {
	Result Result
	Source string
}

// IsFinding reports whether a verdict is a finding. Licensed and imprecise
// are expected outcomes of a conservative analysis, not findings.
func IsFinding(v Verdict) bool { return v == VerdictUnsound || v == VerdictError }

// Campaign is the two-run contract campaign over cells as the campaign
// engine runs it: each cell is checked with opt under the cell's policy.
// When so collects metrics, each cell leaves the merge of its two runs'
// snapshots on its record. A seed memo, sized to the cells' seeds, generates
// and digests each seed's program once and prepares its check at most once,
// for the first of its cells the result cache does not serve: assembles it,
// derives its contract, draws its secret images and patches its two data
// images. Its entry also holds the views of the seed's clean checks, which
// their pointer-auth siblings take without simulating until the last cell
// of their view key drops them.
func Campaign(opt Options, cells []Cell, so *campaign.SweepObs) campaign.Checker[Cell, Result] {
	collect := so != nil && so.CollectMetrics
	// options are the options a cell is checked with, its snapshots going
	// to sink when the campaign collects metrics.
	options := func(c Cell, sink func(*obs.Snapshot)) Options {
		o := opt
		o.Policy, o.Seed = c.Policy, c.Seed
		if collect {
			o.MetricsSink = sink
		}
		return o
	}
	sources := campaign.NewMemo[int64, source](campaign.Distinct(cells, func(c Cell) int64 { return c.Seed }))
	if testHookSources != nil {
		testHookSources(sources)
	}
	// The key reads only whether a sink is set, not which.
	left := campaign.NewCountdown(cells, func(c Cell) seedView {
		return seedView{c.Seed, options(c, func(*obs.Snapshot) {}).viewKey()}
	})
	return campaign.Checker[Cell, Result]{
		Cell: func(c Cell) telemetry.Record {
			return telemetry.Record{Kind: "verify", Policy: c.Policy.String(), Seed: c.Seed}
		},
		Check: func(_ int, c Cell, rec *telemetry.Record) (Result, error) {
			o := options(c, rec.AddMetrics)
			start := time.Now()
			// The preparation reads o's policy-free options only, so the
			// cell that builds the entry may prepare it for every policy.
			src := sources.Get(c.Seed, func() source { return newSource(diffcheck.GenSecretProgram(c.Seed), o) })
			res := checkSource(src, o)
			if key := o.viewKey(); left.Done(seedView{c.Seed, key}) {
				src.siblings.Drop(key)
			}
			rec.HostNs = time.Since(start).Nanoseconds()
			// Both runs' cycles: the cell's total simulated work.
			rec.Verdict, rec.SimCycles, rec.Cached = string(res.Verdict), res.CyclesA+res.CyclesB, res.Cached
			return res, nil
		},
		Finding: func(v string) bool { return IsFinding(Verdict(v)) },
	}
}

// testHookSources, when set, receives each campaign's seed memo: tests read
// through it what the memo's entries hold once a campaign is done.
var testHookSources func(*campaign.Memo[int64, source])

// seedView is a view key of one seed: the cells of a campaign that share
// one pair of views.
type seedView struct {
	seed int64
	key  viewKey
}

// SweepObserved checks every cell on the campaign engine (parallelism <= 0
// means NumCPU) and returns per-cell results in cell order plus the
// findings, ordered by (seed, policy, cell index). Cells skipped because ctx
// expired have an empty Verdict; the ctx error is returned so callers can
// distinguish "clean" from "clean so far, budget exhausted". The
// observability hooks are the differential fuzzer's: one ledger schema, one
// meter.
func SweepObserved(ctx context.Context, cells []Cell, opt Options, parallelism int, so *campaign.SweepObs) ([]Result, []Finding, error) {
	rep, err := campaign.Sweep(ctx, Campaign(opt, cells, so), cells, nil, 0, parallelism, so)
	var findings []Finding
	for _, r := range rep.Findings {
		findings = append(findings, Finding{Result: r, Source: diffcheck.GenSecretProgram(r.Seed)})
	}
	return rep.Results, findings, err
}
