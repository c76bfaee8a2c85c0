package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/harness"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// TestSweepParallelOutputByteIdentical is the engine's end-to-end
// determinism gate: the same sweep run serially and on an 8-worker pool
// must render byte-identical tables and bar figures.
func TestSweepParallelOutputByteIdentical(t *testing.T) {
	p := Params{Warmup: 4_000, Measure: 12_000}
	for _, n := range []string{"gapx", "swimx"} {
		w, _ := workload.ByName(n)
		p.Workloads = append(p.Workloads, w)
	}
	schemes := []policy.ControlPoint{policy.ThenIssue, policy.ThenCommit}

	render := func(parallelism int) (string, string) {
		t.Helper()
		pp := p
		pp.Runner = &harness.Runner{Parallelism: parallelism}
		sw, err := RunSweep("determinism", pp, schemes, nil)
		if err != nil {
			t.Fatal(err)
		}
		var table, bars bytes.Buffer
		sw.Render(&table)
		sw.RenderBars(&bars)
		return table.String(), bars.String()
	}
	serialTable, serialBars := render(1)
	parTable, parBars := render(8)
	if serialTable != parTable {
		t.Errorf("table output differs:\n--- serial ---\n%s--- parallel ---\n%s", serialTable, parTable)
	}
	if serialBars != parBars {
		t.Errorf("bar output differs:\n--- serial ---\n%s--- parallel ---\n%s", serialBars, parBars)
	}
	if !strings.Contains(serialTable, "gapx") || !strings.Contains(serialTable, "MEAN") {
		t.Errorf("render shape unexpected:\n%s", serialTable)
	}
}

// TestSweepMetricsParallelIdentical pins the per-policy metrics rows of
// bench sweeps: at 1 and 4 workers they hold the same cells and snapshots,
// in sweep order (the baseline, then each policy), one cell per workload;
// a second sweep on the same runner serves its baselines from the memo and
// merges none of them again.
func TestSweepMetricsParallelIdentical(t *testing.T) {
	p := Params{Warmup: 4_000, Measure: 12_000}
	for _, n := range []string{"gapx", "swimx"} {
		w, _ := workload.ByName(n)
		p.Workloads = append(p.Workloads, w)
	}
	rows := func(parallelism int) []campaign.PolicyMetrics {
		t.Helper()
		so := &campaign.SweepObs{CollectMetrics: true}
		pp := p
		pp.Runner = &harness.Runner{Parallelism: parallelism, Obs: so}
		for _, pols := range [][]policy.ControlPoint{{policy.ThenIssue, policy.ThenCommit}, {policy.ThenWrite}} {
			if _, err := RunSweep("metrics", pp, pols, nil); err != nil {
				t.Fatal(err)
			}
		}
		return so.Rows()
	}
	serial := rows(1)
	want := []policy.ControlPoint{policy.Baseline, policy.ThenIssue, policy.ThenCommit, policy.ThenWrite}
	if len(serial) != len(want) {
		t.Fatalf("%d rows, want %d", len(serial), len(want))
	}
	for i, r := range serial {
		if r.Policy != want[i].String() || r.Cells != len(p.Workloads) || r.Snap.Counters["pipe.commit"] == 0 {
			t.Errorf("row %d: %s with %d cells and %d commits, want %s with %d cells",
				i, r.Policy, r.Cells, r.Snap.Counters["pipe.commit"], want[i], len(p.Workloads))
		}
	}
	if parallel := rows(4); !reflect.DeepEqual(parallel, serial) {
		t.Errorf("rows at 4 workers differ from serial:\n%+v\nserial:\n%+v", parallel, serial)
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	ctr := rows[0]
	cbcLast := rows[2]
	if ctr.Gap == 0 {
		t.Error("counter-mode gap should be positive (auth lags decrypt)")
	}
	// Table 1's point: CBC narrows the gap but inflates both latencies.
	if cbcLast.Gap >= ctr.Gap {
		t.Errorf("CBC last-chunk gap %d should be below counter-mode gap %d", cbcLast.Gap, ctr.Gap)
	}
	if cbcLast.DecryptLat <= ctr.DecryptLat {
		t.Error("CBC decryption should be slower than counter mode")
	}
	measured := rows[3]
	if measured.Gap == 0 {
		t.Error("measured gap should be positive")
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "counter mode") {
		t.Error("render output missing rows")
	}
}

func TestTable3Renders(t *testing.T) {
	var buf bytes.Buffer
	RenderTable3(&buf, sim.DefaultConfig())
	for _, want := range []string{"L2 Cache", "256KB", "RUU", "128", "80ns", "74ns"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 3 output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestFig6DependentFetch(t *testing.T) {
	rows, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	issue, fetch := rows[0], rows[1]
	if issue.Policy != policy.ThenIssue || fetch.Policy != policy.ThenFetch {
		t.Fatalf("unexpected order %v %v", issue.Policy, fetch.Policy)
	}
	if issue.Fetch2Cycle == 0 || fetch.Fetch2Cycle == 0 {
		t.Fatal("dependent fetch missing from a trace")
	}
	// The paper's Figure 6 point: then-fetch issues the dependent fetch
	// earlier than then-issue.
	if fetch.SecondMinus1 >= issue.SecondMinus1 {
		t.Errorf("then-fetch gap %d should beat then-issue gap %d", fetch.SecondMinus1, issue.SecondMinus1)
	}
	var buf bytes.Buffer
	RenderFig6(&buf, rows)
	if !strings.Contains(buf.String(), "then-fetch") {
		t.Error("render output empty")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	want := map[policy.ControlPoint]Table2Row{
		policy.ThenIssue:             {PreventsFetchLeak: true, PreciseException: true, AuthenticatedMemory: true, AuthenticatedProcessor: true},
		policy.ThenWrite:             {PreventsFetchLeak: false, PreciseException: false, AuthenticatedMemory: true, AuthenticatedProcessor: false},
		policy.ThenCommit:            {PreventsFetchLeak: false, PreciseException: true, AuthenticatedMemory: true, AuthenticatedProcessor: true},
		policy.CommitPlusFetch:       {PreventsFetchLeak: true, PreciseException: true, AuthenticatedMemory: true, AuthenticatedProcessor: true},
		policy.CommitPlusObfuscation: {PreventsFetchLeak: true, PreciseException: true, AuthenticatedMemory: true, AuthenticatedProcessor: true},
	}
	for _, r := range rows {
		w := want[r.Policy]
		if r.PreventsFetchLeak != w.PreventsFetchLeak ||
			r.PreciseException != w.PreciseException ||
			r.AuthenticatedMemory != w.AuthenticatedMemory ||
			r.AuthenticatedProcessor != w.AuthenticatedProcessor {
			t.Errorf("%v: got %+v want %+v", r.Policy, r, w)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "commit+fetch") {
		t.Error("render output missing rows")
	}
}

// Quick end-to-end sweep: shape assertions on a small workload subset.
func TestQuickSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	if raceEnabled {
		t.Skip("simulation-heavy; race coverage comes from TestSweepParallelOutputByteIdentical and TestTable2MatchesPaper")
	}
	p := QuickParams()
	sw, err := RunSweep("quick", p, PerfPolicies, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Rows) != len(p.Workloads) {
		t.Fatalf("rows %d", len(sw.Rows))
	}
	for _, r := range sw.Rows {
		if r.BaselineIPC <= 0 {
			t.Errorf("%s: baseline IPC %v", r.Workload, r.BaselineIPC)
		}
		for _, sc := range PerfPolicies {
			n := r.Normalized(sc)
			if n <= 0 || n > 1.10 {
				t.Errorf("%s %v: normalized IPC %.3f out of range", r.Workload, sc, n)
			}
		}
	}
	// Paper ranking on means: then-write best, then-commit next, then-issue
	// and obfuscation worst.
	mw := sw.MeanNormalized(policy.ThenWrite)
	mc := sw.MeanNormalized(policy.ThenCommit)
	mi := sw.MeanNormalized(policy.ThenIssue)
	if !(mw >= mc && mc >= mi) {
		t.Errorf("mean ranking violated: write=%.3f commit=%.3f issue=%.3f", mw, mc, mi)
	}
	var buf bytes.Buffer
	sw.Render(&buf)
	if !strings.Contains(buf.String(), "MEAN") {
		t.Error("render missing mean row")
	}
	sp := sw.Speedups([]policy.ControlPoint{policy.ThenCommit, policy.ThenWrite, policy.CommitPlusFetch})
	for _, r := range sp {
		if r.Speedup[policy.ThenCommit] < 1.0-0.05 {
			t.Errorf("%s: then-commit speedup over then-issue %.3f < 1", r.Workload, r.Speedup[policy.ThenCommit])
		}
	}
	RenderSpeedups(&buf, "quick speedups", sp, []policy.ControlPoint{policy.ThenCommit})
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	if raceEnabled {
		t.Skip("simulation-heavy; race coverage comes from TestSweepParallelOutputByteIdentical and TestTable2MatchesPaper")
	}
	p := QuickParams()
	// Use an even smaller subset: ablations multiply run counts.
	p.Workloads = p.Workloads[:2]
	p.Warmup, p.Measure = 8_000, 25_000

	fv, err := AblationFetchVariants(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fv.Points) != 2 {
		t.Fatalf("points %d", len(fv.Points))
	}
	// The drain variant is strictly more conservative.
	if fv.Points[1].Mean > fv.Points[0].Mean+0.02 {
		t.Errorf("drain (%.3f) should not beat LastRequest tag (%.3f)",
			fv.Points[1].Mean, fv.Points[0].Mean)
	}

	cp, err := AblationCtrPrediction(p)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Points[1].Mean > cp.Points[0].Mean+0.02 {
		t.Errorf("no-prediction (%.3f) should not beat prediction (%.3f)",
			cp.Points[1].Mean, cp.Points[0].Mean)
	}

	var buf bytes.Buffer
	fv.Render(&buf)
	if !strings.Contains(buf.String(), "drain") {
		t.Error("render missing points")
	}
}

func TestRenderBars(t *testing.T) {
	sw := &Sweep{
		Title:    "bars",
		Policies: []policy.ControlPoint{policy.ThenIssue, policy.ThenCommit},
		Rows: []IPCRow{{
			Workload:    "demo",
			BaselineIPC: 1.0,
			IPC: map[policy.ControlPoint]float64{
				policy.ThenIssue:  0.85,
				policy.ThenCommit: 1.5, // clamps at the bar edge
			},
		}},
	}
	var buf bytes.Buffer
	sw.RenderBars(&buf)
	out := buf.String()
	for _, want := range []string{"then-issue", "then-commit", "0.850", "MEAN", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("bars missing %q:\n%s", want, out)
		}
	}
}

// Exercise every figure driver end-to-end on a micro configuration.
func TestFigureDriversQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	if raceEnabled {
		t.Skip("simulation-heavy; race coverage comes from TestSweepParallelOutputByteIdentical and TestTable2MatchesPaper")
	}
	p := Params{Warmup: 5_000, Measure: 15_000}
	for _, n := range []string{"swimx", "gccx"} {
		w, _ := workload.ByName(n)
		p.Workloads = append(p.Workloads, w)
	}

	f7, err := Fig7(p, false, 256<<10, 4) // INT subset: gccx only
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) != 1 || f7.Rows[0].Workload != "gccx" {
		t.Fatalf("fig7 INT filter: %+v", f7.Rows)
	}

	f9, err := Fig9(p, []int{64 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(f9) != 2 || f9[0].Mean <= 0 {
		t.Fatalf("fig9: %+v", f9)
	}
	if f9[1].Mean+0.05 < f9[0].Mean {
		t.Errorf("larger re-map cache should not be clearly worse: %.3f vs %.3f", f9[1].Mean, f9[0].Mean)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, f9)
	if !strings.Contains(buf.String(), "64KB") {
		t.Error("fig9 render")
	}

	f10, err := Fig10(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Policies) != 4 {
		t.Fatalf("fig10 policies %d", len(f10.Policies))
	}

	f12, err := Fig12(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f12.Rows {
		for _, sc := range Fig12Policies {
			if n := r.Normalized(sc); n <= 0 || n > 1.2 {
				t.Errorf("fig12 %s %v: %.3f", r.Workload, sc, n)
			}
		}
	}
}
