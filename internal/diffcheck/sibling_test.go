package diffcheck

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
)

// countTimedRuns counts the timed machines the checks fn runs build.
func countTimedRuns(fn func()) uint64 {
	var n atomic.Uint64
	testHookTimedRun = func() { n.Add(1) }
	defer func() { testHookTimedRun = nil }()
	fn()
	return n.Load()
}

// siteOptions is one check of every kind: untampered, and at each site.
func siteOptions() []Options {
	opts := []Options{{}}
	for _, site := range Sites() {
		opts = append(opts, Options{Tamper: true, TamperSite: site})
	}
	return opts
}

// allSiteCells is every cell of seeds under pols, untampered and at every
// tamper site.
func allSiteCells(seeds []int64, pols []policy.ControlPoint) []Cell {
	return append(CrossCells(seeds, pols, false), tamperCells(seeds, pols)...)
}

// TestSiblingsShareRuns pins the simulations that pointer-auth siblings
// save: at one worker, a campaign over seeds 1-3 under the ci lattice,
// untampered and at every site, whose runs fail no auth check, builds a
// timed machine for 16 of each (seed, site)'s 27 cells, one per gate set:
// 288 for 486 cells, where each cell built its own before.
func TestSiblingsShareRuns(t *testing.T) {
	cells := allSiteCells([]int64{1, 2, 3}, policy.Lattice())
	var err error
	runs := countTimedRuns(func() { _, _, err = SweepObserved(context.Background(), cells, Options{}, 1, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 486 || runs != 288 {
		t.Fatalf("%d cells built %d timed machines, want 486 and 288", len(cells), runs)
	}
}

// TestSiblingsFailingAuthShareNothing pins the path that must not share:
// through one shared source and oracle memo, as in a campaign, every check
// of pacFailSrc under the ci lattice, untampered and at every site,
// returns what a check of its own returns and builds its own timed
// machine, since the oracle's auth mismatches; a generated program, whose
// auths all match, builds one per gate set of each kind of check.
func TestSiblingsFailingAuthShareNothing(t *testing.T) {
	pols := policy.Lattice()
	for _, c := range []struct {
		name string
		src  string
		runs uint64 // timed machines built per kind of check
	}{
		{"forged auth", pacFailSrc, 27},
		{"seed 1", GenProgram(1), 16},
	} {
		s, memo := newSource(c.src), NewOracleMemo(0)
		for _, base := range siteOptions() {
			want := make([]Result, len(pols))
			for i, pt := range pols {
				opt := base
				opt.Policy = pt
				want[i] = Check(c.src, opt)
			}
			got := make([]Result, len(pols))
			runs := countTimedRuns(func() {
				for i, pt := range pols {
					opt := base
					opt.Policy, opt.Oracle = pt, memo
					got[i] = checkSource(s, opt)
				}
			})
			for i, pt := range pols {
				if got[i] != want[i] {
					t.Fatalf("%s under %v, %+v:\nshared: %+v\nown:    %+v", c.name, pt, base, got[i], want[i])
				}
			}
			if runs != c.runs {
				t.Errorf("%s, %+v: %d timed machines for %d checks, want %d", c.name, base, runs, len(pols), c.runs)
			}
		}
	}
}

// TestSiblingCampaignMatchesChecks pins the gate-set classes: a campaign
// over seeds 1-2 under the ci lattice plus the baseline and authen-only,
// untampered and at every site, at one worker and at eight, returns for
// every cell what an unshared check returns. authen-only shares its class
// with authen-then-pac and authen-then-fpac; the baseline, which verifies
// nothing, is a class of its own.
func TestSiblingCampaignMatchesChecks(t *testing.T) {
	pols := append(policy.Lattice(), policy.Baseline, policy.AuthOnly)
	cells := allSiteCells([]int64{1, 2}, pols)
	want := make([]Result, len(cells))
	for i, c := range cells {
		want[i], _ = CheckSeed(c.Seed, Options{Policy: c.Policy, Tamper: c.Tamper, TamperSite: c.Site})
	}
	for _, workers := range []int{1, 8} {
		got, _, err := SweepObserved(context.Background(), cells, Options{}, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if got[i] != want[i] {
				t.Fatalf("%d workers, cell %+v:\ncampaign: %+v\ncheck:    %+v", workers, cells[i], got[i], want[i])
			}
		}
	}
}

// TestSiblingMetricsRows pins the metrics of shared cells: with
// CollectMetrics, a campaign's per-policy rows over seeds 1-2 under the ci
// lattice, untampered and at the mac site, at one worker and at eight,
// equal rows merged from unshared checks of each cell.
func TestSiblingMetricsRows(t *testing.T) {
	pols := policy.Lattice()
	cells := append(CrossCells([]int64{1, 2}, pols, false), WithSite(CrossCells([]int64{1, 2}, pols, true), SiteMac)...)
	var want []campaign.PolicyMetrics
	row := map[string]int{}
	for _, c := range cells {
		name := c.Policy.String()
		i, ok := row[name]
		if !ok {
			i, row[name] = len(want), len(want)
			want = append(want, campaign.PolicyMetrics{Policy: name, Snap: &obs.Snapshot{}})
		}
		sink := func(s *obs.Snapshot) { _ = want[i].Snap.Merge(s) }
		CheckSeed(c.Seed, Options{Policy: c.Policy, Tamper: c.Tamper, TamperSite: c.Site, MetricsSink: sink})
		want[i].Cells++
	}
	for _, workers := range []int{1, 8} {
		so := &SweepObs{CollectMetrics: true}
		if _, _, err := SweepObserved(context.Background(), cells, Options{}, workers, so); err != nil {
			t.Fatal(err)
		}
		if got := so.Rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: %d rows differ from the unshared checks' %d", workers, len(got), len(want))
		}
	}
}

// TestSiblingSnapshotsAreCopies pins that a sink owns the snapshot it is
// handed: through one shared source, a sink that copies each snapshot and
// then writes to it, as a record merging a cell's second run into its
// first does, receives under every point of the ci lattice the snapshot an
// unshared check hands it.
func TestSiblingSnapshotsAreCopies(t *testing.T) {
	src := GenProgram(2)
	s := newSource(src)
	for _, pt := range policy.Lattice() {
		var want, got *obs.Snapshot
		Check(src, Options{Policy: pt, MetricsSink: func(snap *obs.Snapshot) { want = snap }})
		checkSource(s, Options{Policy: pt, MetricsSink: func(snap *obs.Snapshot) {
			got = snap.Clone()
			snap.Counters["pipe.commit"]++
		}})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("under %v: handed %d commits, want %d", pt, got.Counters["pipe.commit"], want.Counters["pipe.commit"])
		}
	}
}

// TestSiblingsDroppedAfterLastCell pins how long outcomes are kept: after a
// campaign over seeds 1-3 under the ci lattice, untampered and at every
// site, at one worker and at eight, with and without metrics, no seed's
// source holds one, since the last cell of each sibling key drops it.
// Kept for the campaign's lifetime, as the seed memo keeps its entries,
// they raised the peak RSS of a 1,000-seed authfuzz -tamper -mode cross
// -metrics campaign from about 100 MB to 285 MB.
func TestSiblingsDroppedAfterLastCell(t *testing.T) {
	var sources *campaign.Memo[int64, source]
	testHookSources = func(m *campaign.Memo[int64, source]) { sources = m }
	defer func() { testHookSources = nil }()
	seeds := []int64{1, 2, 3}
	cells := allSiteCells(seeds, policy.Lattice())
	for _, workers := range []int{1, 8} {
		for _, collect := range []bool{false, true} {
			if _, _, err := SweepObserved(context.Background(), cells, Options{}, workers, &SweepObs{CollectMetrics: collect}); err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				src := sources.Get(seed, func() source { t.Fatalf("seed %d not memoized", seed); return source{} })
				if n := src.siblings.Len(); n != 0 {
					t.Fatalf("%d workers, metrics %v: seed %d still holds %d outcomes", workers, collect, seed, n)
				}
			}
		}
	}
}
