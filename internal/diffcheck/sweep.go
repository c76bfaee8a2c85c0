package diffcheck

import (
	"context"
	"time"

	"authpoint/internal/campaign"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/telemetry"
)

// Cell is one unit of fuzz work: a seed checked under one policy. Site
// selects the tamper site for tamper cells; empty means SiteEntry.
type Cell struct {
	Seed   int64
	Policy policy.ControlPoint
	Tamper bool
	Site   TamperSite
}

// EffectiveSite is the site a check of this cell records: tamper cells
// default to the entry site, untampered cells have none. This is the Site
// value the cell's ledger record carries, so resume joins on it.
func (c Cell) EffectiveSite() TamperSite {
	if !c.Tamper {
		return ""
	}
	if c.Site == "" {
		return SiteEntry
	}
	return c.Site
}

// WithSite returns the cells with every tamper cell retargeted to site.
// Non-tamper cells are unchanged.
func WithSite(cells []Cell, site TamperSite) []Cell {
	out := make([]Cell, len(cells))
	for i, c := range cells {
		if c.Tamper {
			c.Site = site
		}
		out[i] = c
	}
	return out
}

// PairCells spreads seeds round-robin over the policies: seed i runs under
// policies[i mod len]. This is the CI smoke shape — every seed checked
// once, every policy exercised continuously — at 1/len(policies) the cost
// of the full cross product.
func PairCells(seeds []int64, pols []policy.ControlPoint, tamper bool) []Cell {
	out := make([]Cell, len(seeds))
	for i, s := range seeds {
		out[i] = Cell{Seed: s, Policy: pols[i%len(pols)], Tamper: tamper}
	}
	return out
}

// CrossCells is the full cross product: every seed under every policy.
func CrossCells(seeds []int64, pols []policy.ControlPoint, tamper bool) []Cell {
	out := make([]Cell, 0, len(seeds)*len(pols))
	for _, s := range seeds {
		for _, p := range pols {
			out = append(out, Cell{Seed: s, Policy: p, Tamper: tamper})
		}
	}
	return out
}

// Finding is a cell whose check did not come back clean, with the program
// that provoked it.
type Finding struct {
	Result Result
	Source string
}

// IsFinding reports whether a verdict is a finding. Tamper verdicts other
// than divergence are expected outcomes, not findings.
func IsFinding(v Verdict) bool { return v == VerdictDivergence || v == VerdictError }

// SweepObs carries the campaign-level observability hooks of a sweep; see
// campaign.SweepObs.
type SweepObs = campaign.SweepObs

// Campaign is the fuzz campaign over cells as the campaign engine runs it:
// each cell is checked with opt under the cell's policy and tamper site.
// When so collects metrics, each cell leaves its timed run's snapshot on its
// record. A seed memo, sized to the cells' seeds, generates and digests each
// seed's program once and assembles it at most once, for the first of its
// cells the result cache does not serve; its entry also holds the end states
// the seed's checks have hashed, and the outcomes of its clean checks, which
// their pointer-auth siblings take without simulating until the last cell
// of their sibling key drops them. When the cells repeat a seed and opt has
// no oracle memo, Campaign attaches one with room for every seed's
// pac-mode-off run and every seed and pac-mode of its cells, so the
// policy-independent oracle leg runs once per seed, and once more per other
// mode of a seed whose auths mismatch, in any cell order.
func Campaign(opt Options, cells []Cell, so *SweepObs) campaign.Checker[Cell, Result] {
	collect := so != nil && so.CollectMetrics
	// options are the options a cell is checked with, its snapshot going to
	// sink when the campaign collects metrics.
	options := func(c Cell, sink func(*obs.Snapshot)) Options {
		o := opt
		o.Policy, o.Tamper, o.TamperSite = c.Policy, c.Tamper, c.Site
		if collect {
			o.MetricsSink = sink
		}
		return o.withDefaults()
	}
	seeds := campaign.Distinct(cells, func(c Cell) int64 { return c.Seed })
	sources := campaign.NewMemo[int64, source](seeds)
	if testHookSources != nil {
		testHookSources(sources)
	}
	if seeds < len(cells) && opt.Oracle == nil {
		opt.Oracle = NewOracleMemo(seeds + campaign.Distinct(cells, func(c Cell) seedMode {
			return seedMode{c.Seed, sim.PACMode(c.Policy.Normalize())}
		}))
	}
	// The key reads only whether a sink is set, not which.
	left := campaign.NewCountdown(cells, func(c Cell) seedSibling {
		return seedSibling{c.Seed, options(c, func(*obs.Snapshot) {}).siblingKey()}
	})
	return campaign.Checker[Cell, Result]{
		Cell: func(c Cell) telemetry.Record {
			return telemetry.Record{Kind: "fuzz", Policy: c.Policy.String(), Seed: c.Seed,
				Tamper: c.Tamper, Site: string(c.EffectiveSite())}
		},
		Check: func(_ int, c Cell, rec *telemetry.Record) (Result, error) {
			o := options(c, rec.AddMetrics)
			start := time.Now()
			src := sources.Get(c.Seed, func() source { return newSource(GenProgram(c.Seed)) })
			res := checkSource(src, o)
			if key := o.siblingKey(); left.Done(seedSibling{c.Seed, key}) {
				src.siblings.Drop(key)
			}
			res.Seed = c.Seed
			rec.HostNs = time.Since(start).Nanoseconds()
			rec.Verdict, rec.SimCycles, rec.Insts, rec.Cached = string(res.Verdict), res.Cycles, res.Insts, res.Cached
			return res, nil
		},
		Finding: func(v string) bool { return IsFinding(Verdict(v)) },
	}
}

// testHookSources, when set, receives each campaign's seed memo: tests read
// through it what the memo's entries hold once a campaign is done.
var testHookSources func(*campaign.Memo[int64, source])

// seedSibling is a sibling key of one seed: the cells of a campaign that
// share one outcome.
type seedSibling struct {
	seed int64
	key  siblingKey
}

// seedMode is a cell's seed and the pointer-auth mode of its policy: what
// decides the oracle run the cell needs when its seed's auths mismatch.
type seedMode struct {
	seed int64
	mode pacmac.Mode
}

// SweepObserved checks every cell on the campaign engine (parallelism <= 0
// means NumCPU) and returns per-cell results in cell order plus the
// findings, ordered by (seed, policy, cell index). Cells skipped because ctx
// expired have an empty Verdict; the ctx error is returned so callers can
// distinguish "clean" from "clean so far, budget exhausted". A non-nil so
// receives per-cell ledger records (explicit "skipped" records included, so
// a ledger doubles as a resume checkpoint), live progress, and merged
// metrics; see campaign.Sweep.
func SweepObserved(ctx context.Context, cells []Cell, opt Options, parallelism int, so *SweepObs) ([]Result, []Finding, error) {
	rep, err := campaign.Sweep(ctx, Campaign(opt, cells, so), cells, nil, 0, parallelism, so)
	var findings []Finding
	for _, r := range rep.Findings {
		findings = append(findings, Finding{Result: r, Source: GenProgram(r.Seed)})
	}
	return rep.Results, findings, err
}
