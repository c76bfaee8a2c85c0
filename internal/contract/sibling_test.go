package contract

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
)

// countRuns counts the timed machines the checks fn runs build.
func countRuns(fn func()) uint64 {
	var n atomic.Uint64
	testHookRun = func() { n.Add(1) }
	defer func() { testHookRun = nil }()
	fn()
	return n.Load()
}

// TestSiblingsShareRuns pins the simulations that pointer-auth siblings
// save: at one worker, a campaign over seeds 31-33 under the ci lattice,
// whose runs fail no auth check, builds runs A and B for 16 of each seed's
// 27 cells, one per gate set: 96 machines for 81 cells, where each cell
// built its own two before.
func TestSiblingsShareRuns(t *testing.T) {
	cells := CrossCells([]int64{31, 32, 33}, policy.Lattice())
	var err error
	runs := countRuns(func() { _, _, err = SweepObserved(context.Background(), cells, Options{}, 1, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 81 || runs != 96 {
		t.Fatalf("%d cells built %d machines, want 81 and 96", len(cells), runs)
	}
}

// TestKernelSiblings pins the path that must not share, and one that must:
// checks through one prepared kernel check under the ci lattice return
// what a check of a preparation of its own returns; those of
// pac-pointer-substitution, whose forged auth mismatches under every mode,
// build both runs of every check, and those of pac-signing-gadget, whose
// re-signed auth matches, build two per gate set.
func TestKernelSiblings(t *testing.T) {
	cases, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"pac-pointer-substitution": 54, "pac-signing-gadget": 32}
	pols := policy.Lattice()
	for _, kc := range cases {
		runs, ok := want[kc.Name]
		if !ok {
			continue
		}
		delete(want, kc.Name)
		own := make([]Result, len(pols))
		for i, pt := range pols {
			k, err := PrepareKernel(kc)
			if err != nil {
				t.Fatal(err)
			}
			own[i] = k.Check(Options{Policy: pt})
		}
		k, err := PrepareKernel(kc)
		if err != nil {
			t.Fatal(err)
		}
		shared := make([]Result, len(pols))
		n := countRuns(func() {
			for i, pt := range pols {
				shared[i] = k.Check(Options{Policy: pt})
			}
		})
		for i, pt := range pols {
			if !reflect.DeepEqual(shared[i], own[i]) {
				t.Fatalf("%s under %v:\nshared: %+v\nown:    %+v", kc.Name, pt, shared[i], own[i])
			}
		}
		if n != runs {
			t.Errorf("%s: %d checks built %d machines, want %d", kc.Name, len(pols), n, runs)
		}
	}
	if len(want) > 0 {
		t.Fatalf("catalog lacks %v", want)
	}
}

// TestSiblingCampaignMatchesChecks pins the gate-set classes: a campaign
// over seeds 31-32 under the ci lattice plus the baseline and authen-only,
// at one worker and at eight, returns for every cell what an unshared check
// returns. authen-only shares its class with authen-then-pac and
// authen-then-fpac; the baseline, which verifies nothing, is a class of its
// own.
func TestSiblingCampaignMatchesChecks(t *testing.T) {
	cells := CrossCells([]int64{31, 32}, append(policy.Lattice(), policy.Baseline, policy.AuthOnly))
	want := make([]Result, len(cells))
	for i, c := range cells {
		want[i], _ = CheckSeed(c.Seed, Options{Policy: c.Policy})
	}
	for _, workers := range []int{1, 8} {
		got, _, err := SweepObserved(context.Background(), cells, Options{}, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%d workers, cell %+v:\ncampaign: %+v\ncheck:    %+v", workers, cells[i], got[i], want[i])
			}
		}
	}
}

// TestSiblingMetricsRows pins the metrics of shared cells: with
// CollectMetrics, a campaign's per-policy rows over seeds 31-32 under the
// ci lattice, at one worker and at eight, equal rows merged from both runs
// of unshared checks of each cell. A cell's record merges its run B into
// the first snapshot it is handed, so a sibling handed a shared snapshot
// rather than a copy would carry its witness's run B twice.
func TestSiblingMetricsRows(t *testing.T) {
	cells := CrossCells([]int64{31, 32}, policy.Lattice())
	var want []campaign.PolicyMetrics
	row := map[string]int{}
	for _, c := range cells {
		name := c.Policy.String()
		i, ok := row[name]
		if !ok {
			i, row[name] = len(want), len(want)
			want = append(want, campaign.PolicyMetrics{Policy: name, Snap: &obs.Snapshot{}})
		}
		CheckSeed(c.Seed, Options{Policy: c.Policy, MetricsSink: func(s *obs.Snapshot) { _ = want[i].Snap.Merge(s) }})
		want[i].Cells++
	}
	for _, workers := range []int{1, 8} {
		so := &campaign.SweepObs{CollectMetrics: true}
		if _, _, err := SweepObserved(context.Background(), cells, Options{}, workers, so); err != nil {
			t.Fatal(err)
		}
		if got := so.Rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: %d rows differ from the unshared checks' %d", workers, len(got), len(want))
		}
	}
}

// TestSiblingsDroppedAfterLastCell pins how long views are kept: after a
// campaign over seeds 31-33 under the ci lattice, at one worker and at
// eight, with and without metrics, no seed's source holds any, since the
// last cell of each view key drops them. Kept for the campaign's lifetime,
// they raised the peak RSS of a 1,000-seed authverify -mode cross -metrics
// campaign from about 86 MB to 338 MB.
func TestSiblingsDroppedAfterLastCell(t *testing.T) {
	var sources *campaign.Memo[int64, source]
	testHookSources = func(m *campaign.Memo[int64, source]) { sources = m }
	defer func() { testHookSources = nil }()
	seeds := []int64{31, 32, 33}
	cells := CrossCells(seeds, policy.Lattice())
	for _, workers := range []int{1, 8} {
		for _, collect := range []bool{false, true} {
			if _, _, err := SweepObserved(context.Background(), cells, Options{}, workers, &campaign.SweepObs{CollectMetrics: collect}); err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				src := sources.Get(seed, func() source { t.Fatalf("seed %d not memoized", seed); return source{} })
				if n := src.siblings.Len(); n != 0 {
					t.Fatalf("%d workers, metrics %v: seed %d still holds %d view pairs", workers, collect, seed, n)
				}
			}
		}
	}
}
