package diffcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
)

// checkLedger runs one observed sweep writing a checkpoint ledger to path,
// cancelling ctx after the killAfter-th cell when killAfter > 0.
func sweepWithLedger(t *testing.T, path string, cells []Cell, killAfter int) ([]Result, []Finding) {
	t.Helper()
	l, err := telemetry.Create(path, telemetry.NewHeader("test", 1))
	if err != nil {
		t.Fatal(err)
	}
	so := &SweepObs{Ledger: l}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{}
	if killAfter > 0 {
		var n atomic.Int64
		// The metrics sink fires once per timed run — one per non-tamper
		// cell — so it doubles as a mid-campaign kill switch.
		opt.MetricsSink = func(*obs.Snapshot) {
			if n.Add(1) == int64(killAfter) {
				cancel()
			}
		}
	}
	results, findings, _ := SweepObserved(ctx, cells, opt, 1, so)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return results, findings
}

// TestSweepKillResumeUnion is the end-to-end checkpoint/resume invariant: a
// campaign killed mid-flight and resumed from its ledger covers, across the
// union of both ledgers, every cell exactly once — with per-cell records
// identical to an uninterrupted run's.
func TestSweepKillResumeUnion(t *testing.T) {
	pols := []policy.ControlPoint{policy.Baseline, policy.ThenCommit}
	cells := CrossCells([]int64{1, 2, 3, 4, 5}, pols, false)
	dir := t.TempDir()

	// Run 1: killed after 4 cells. The ledger must still record every cell —
	// terminal verdicts for the ones that ran, explicit skips for the rest.
	first := dir + "/first.jsonl"
	results1, findings1 := sweepWithLedger(t, first, cells, 4)
	if len(findings1) != 0 {
		t.Fatalf("unexpected findings in run 1: %d", len(findings1))
	}
	ran := 0
	for _, r := range results1 {
		if r.Verdict != "" {
			ran++
		}
	}
	if ran == 0 || ran == len(cells) {
		t.Fatalf("kill switch did not interrupt the sweep: %d/%d cells ran", ran, len(cells))
	}
	lf1, err := telemetry.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf1.Validate(); err != nil {
		t.Fatalf("interrupted ledger is not a valid checkpoint: %v", err)
	}
	if len(lf1.Records) != len(cells) {
		t.Fatalf("interrupted ledger has %d records, want one per cell (%d)", len(lf1.Records), len(cells))
	}

	// Resume: subtract the checkpoint's completed cells, sweep the rest.
	done, err := campaign.LoadCompleted(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != ran {
		t.Fatalf("checkpoint records %d completed cells, want %d", len(done), ran)
	}
	var pending []Cell
	for _, c := range cells {
		id := campaign.CellID{Kind: "fuzz", Policy: c.Policy.String(), Seed: c.Seed,
			Tamper: c.Tamper, Site: string(c.EffectiveSite())}
		if _, ok := done[id]; !ok {
			pending = append(pending, c)
		}
	}
	if len(pending) != len(cells)-ran {
		t.Fatalf("resume selected %d pending cells, want %d", len(pending), len(cells)-ran)
	}
	second := dir + "/second.jsonl"
	_, findings2 := sweepWithLedger(t, second, pending, 0)
	if len(findings2) != 0 {
		t.Fatalf("unexpected findings in run 2: %d", len(findings2))
	}

	// The union of terminal records across both ledgers covers every cell
	// exactly once.
	lf2, err := telemetry.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	union := map[campaign.CellID]telemetry.Record{}
	for _, lf := range []*telemetry.LedgerFile{lf1, lf2} {
		for _, r := range lf.Records {
			if r.Verdict == "" || r.Verdict == telemetry.VerdictSkipped {
				continue
			}
			id := campaign.CellID{Kind: r.Kind, Policy: r.Policy, Seed: r.Seed, Tamper: r.Tamper, Site: r.Site}
			if _, dup := union[id]; dup {
				t.Fatalf("cell %+v recorded by both runs", id)
			}
			union[id] = r
		}
	}
	if len(union) != len(cells) {
		t.Fatalf("union covers %d cells, want %d", len(union), len(cells))
	}

	// And each union record matches the uninterrupted campaign's, field for
	// field, once host-dependent fields (and the seq renumbering) are shed.
	full := dir + "/full.jsonl"
	sweepWithLedger(t, full, cells, 0)
	lf3, err := telemetry.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range lf3.Records {
		id := campaign.CellID{Kind: r.Kind, Policy: r.Policy, Seed: r.Seed, Tamper: r.Tamper, Site: r.Site}
		got, ok := union[id]
		if !ok {
			t.Fatalf("cell %+v missing from the resumed union", id)
		}
		want := r.Canonical()
		got = got.Canonical()
		want.Seq, got.Seq = 0, 0
		if got != want {
			t.Fatalf("cell %+v: resumed record %+v != uninterrupted %+v", id, got, want)
		}
	}
}

// TestCheckCacheBitIdentity pins the cache determinism contract across the CI
// policy set: a cached result equals the fresh one field for field (modulo
// the Cached marker), and a second sweep over a warm cache simulates nothing.
func TestCheckCacheBitIdentity(t *testing.T) {
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pols, err := policy.ParseSet("ci")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2, 3}
	for _, seed := range seeds {
		for _, pt := range pols {
			opt := Options{Policy: pt, Cache: store}
			fresh, _ := CheckSeed(seed, opt)
			if fresh.Cached {
				t.Fatalf("seed %d under %v: first check claims cached", seed, pt)
			}
			cached, _ := CheckSeed(seed, opt)
			if !cached.Cached {
				t.Fatalf("seed %d under %v: second check missed the cache", seed, pt)
			}
			cached.Cached = false
			if !reflect.DeepEqual(fresh, cached) {
				t.Fatalf("seed %d under %v: cached result diverged:\nfresh:  %+v\ncached: %+v",
					seed, pt, fresh, cached)
			}
		}
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}
	want := int64(len(seeds) * len(pols))
	if store.Hits() != want || store.Puts() != want {
		t.Fatalf("cache hits=%d puts=%d, want %d each", store.Hits(), store.Puts(), want)
	}
}

// TestSweepCachedSecondRun is the campaign-level acceptance shape: the same
// cross sweep run twice against one cache directory simulates zero cells the
// second time, and every second-run ledger record is marked cached with a
// verdict identical to the first run's.
func TestSweepCachedSecondRun(t *testing.T) {
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pols := []policy.ControlPoint{policy.Baseline, policy.ThenFetch}
	cells := CrossCells([]int64{10, 11, 12}, pols, false)
	dir := t.TempDir()

	sweepLedger := func(path string) *telemetry.LedgerFile {
		t.Helper()
		l, err := telemetry.Create(path, telemetry.NewHeader("test", 0))
		if err != nil {
			t.Fatal(err)
		}
		so := &SweepObs{Ledger: l}
		if _, _, err := SweepObserved(context.Background(), cells, Options{Cache: store}, 2, so); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		lf, err := telemetry.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lf.SortBySeq()
		return lf
	}
	lf1 := sweepLedger(dir + "/cold.jsonl")
	lf2 := sweepLedger(dir + "/warm.jsonl")

	for i, r := range lf2.Records {
		if !r.Cached {
			t.Fatalf("warm-cache record %d (seed %d, %s) not served from cache", i, r.Seed, r.Policy)
		}
		a, b := lf1.Records[i].Canonical(), r.Canonical()
		b.Cached = false
		a.Cached = false
		if a != b {
			t.Fatalf("record %d drifted across cache: cold %+v, warm %+v", i, a, b)
		}
	}
	if store.Hits() != int64(len(cells)) {
		t.Fatalf("warm sweep hit the cache %d times, want %d", store.Hits(), len(cells))
	}
}

// TestOracleMemo pins the memoization observable: a cross-shaped sweep pays
// the policy-independent oracle leg once per (seed, pac-mode), not once per
// cell.
func TestOracleMemo(t *testing.T) {
	memo := NewOracleMemo(0)
	pols := []policy.ControlPoint{policy.Baseline, policy.ThenCommit, policy.CommitPlusFetch}
	seeds := []int64{20, 21}
	for _, seed := range seeds {
		for _, pt := range pols {
			res, _ := CheckSeed(seed, Options{Policy: pt, Oracle: memo})
			if res.Verdict != VerdictOK {
				t.Fatalf("seed %d under %v: %s (%s)", seed, pt, res.Verdict, res.Divergence)
			}
		}
	}
	// All three policies share pacmac mode off, so each seed runs the oracle
	// exactly once.
	if want := uint64(len(seeds)); memo.Misses() != want {
		t.Fatalf("oracle ran %d times, want once per seed (%d)", memo.Misses(), want)
	}
	if want := uint64(len(seeds) * (len(pols) - 1)); memo.Hits() != want {
		t.Fatalf("memo hits %d, want %d", memo.Hits(), want)
	}
}

// TestOracleMemoModeSplit pins when the memo splits on the architectural
// PAC mode: a program whose auths all match runs its oracle once, with
// pointer auth off, for every mode, and a program whose auth mismatches
// also runs it under each other mode its checks ask for. Either way the
// run with pointer auth off comes first, even for a first check that asks
// for poison, and every check returns what an unmemoized check returns.
func TestOracleMemoModeSplit(t *testing.T) {
	pols := []policy.ControlPoint{policy.ThenPAC, policy.ThenFPAC, policy.Baseline}
	for _, c := range []struct {
		name string
		src  string
		runs []uint64 // memo misses after each policy's check
	}{
		{"matching auths", GenProgram(30), []uint64{1, 1, 1}},
		{"forged auth", pacFailSrc, []uint64{2, 3, 3}},
	} {
		memo := NewOracleMemo(0)
		for i, pt := range pols {
			got, want := Check(c.src, Options{Policy: pt, Oracle: memo}), Check(c.src, Options{Policy: pt})
			if got != want || got.Verdict != VerdictOK {
				t.Fatalf("%s under %v: memoized %+v, unmemoized %+v", c.name, pt, got, want)
			}
			if n := memo.Misses(); n != c.runs[i] {
				t.Fatalf("%s: %d oracle runs after %v, want %d", c.name, n, pt, c.runs[i])
			}
		}
	}
}

// TestSweepLedgerSerialParallelIdentity pins the ledger determinism contract
// for the fuzz sweep: re-sorted by seq and with host-dependent fields
// canonicalized away, a ledger swept by 8 workers is byte-identical to a
// serial one.
func TestSweepLedgerSerialParallelIdentity(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	pols := []policy.ControlPoint{policy.Baseline, policy.ThenCommit, policy.ThenPAC}
	cells := append(CrossCells(seeds, pols, false), WithSite(CrossCells(seeds, pols, true), SiteMac)...)
	canon := func(workers int) []byte {
		var buf bytes.Buffer
		l := telemetry.NewLedger(&buf)
		if err := l.WriteHeader(telemetry.NewHeader("test", workers)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := SweepObserved(context.Background(), cells, Options{}, workers, &SweepObs{Ledger: l}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		lf, err := telemetry.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		lf.SortBySeq()
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for _, r := range lf.Records {
			if err := enc.Encode(r.Canonical()); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	serial, parallel := canon(1), canon(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("canonical ledgers differ:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
