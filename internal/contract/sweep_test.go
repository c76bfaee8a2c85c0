package contract

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/diffcheck"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
)

// sweepLedger sweeps cells into an in-memory ledger, resuming from done when
// it is non-nil and cancelling the sweep once killAfter cells have run when
// killAfter > 0, and returns the report and the ledger.
func sweepLedger(t *testing.T, cells []Cell, done map[campaign.CellID]string, workers, killAfter int) (campaign.Report[Result], *telemetry.LedgerFile) {
	t.Helper()
	var buf bytes.Buffer
	l := telemetry.NewLedger(&buf)
	if err := l.WriteHeader(telemetry.NewHeader("test", workers)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{}
	if killAfter > 0 {
		var n atomic.Int64
		// The metrics sink fires twice per check (runs A and B), so it
		// doubles as a mid-campaign kill switch.
		opt.MetricsSink = func(*obs.Snapshot) {
			if n.Add(1) == int64(2*killAfter) {
				cancel()
			}
		}
	}
	so := &campaign.SweepObs{Ledger: l}
	rep, _ := campaign.Sweep(ctx, Campaign(opt, cells, so), cells, done, 0, workers, so)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lf, err := telemetry.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Validate(); err != nil {
		t.Fatalf("ledger is not a valid checkpoint: %v", err)
	}
	lf.SortBySeq()
	return rep, lf
}

// TestSweepLedgerSerialParallelIdentity pins the ledger determinism contract
// for the verify sweep: re-sorted by seq and with host-dependent fields
// canonicalized away, a ledger swept by 8 workers is byte-identical to a
// serial one.
func TestSweepLedgerSerialParallelIdentity(t *testing.T) {
	cells := CrossCells([]int64{1, 2, 3, 4}, []policy.ControlPoint{policy.Baseline, policy.ThenCommit, policy.CommitPlusObfuscation})
	canon := func(workers int) []byte {
		_, lf := sweepLedger(t, cells, nil, workers, 0)
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

// TestSweepKillResumeUnion is the checkpoint/resume invariant for the verify
// kind: a campaign killed mid-flight and resumed from its ledger covers,
// across the union of both ledgers, every cell exactly once, with records
// identical to an uninterrupted run's.
func TestSweepKillResumeUnion(t *testing.T) {
	cells := CrossCells([]int64{1, 2, 3, 4, 5}, []policy.ControlPoint{policy.Baseline, policy.ThenCommit})
	rep1, lf1 := sweepLedger(t, cells, nil, 1, 4)
	if len(lf1.Records) != len(cells) {
		t.Fatalf("interrupted ledger has %d records, want one per cell (%d)", len(lf1.Records), len(cells))
	}
	done := campaign.Completed(lf1)
	if len(done) == 0 || len(done) == len(cells) {
		t.Fatalf("kill switch did not interrupt the sweep: %d/%d cells ran", len(done), len(cells))
	}
	rep2, lf2 := sweepLedger(t, cells, done, 1, 0)
	if rep2.Done != len(done) || len(rep2.Results) != len(cells)-len(done) {
		t.Fatalf("resume skipped %d and swept %d cells, want %d and %d",
			rep2.Done, len(rep2.Results), len(done), len(cells)-len(done))
	}
	if len(rep1.Findings)+len(rep2.Findings) != 0 {
		t.Fatalf("unexpected findings: %d, %d", len(rep1.Findings), len(rep2.Findings))
	}

	union := map[campaign.CellID]telemetry.Record{}
	for _, lf := range []*telemetry.LedgerFile{lf1, lf2} {
		for _, r := range lf.Records {
			if r.Verdict == telemetry.VerdictSkipped {
				continue
			}
			id := campaign.CellID{Kind: r.Kind, Policy: r.Policy, Seed: r.Seed}
			if _, dup := union[id]; dup {
				t.Fatalf("cell %+v recorded by both runs", id)
			}
			union[id] = r
		}
	}
	_, full := sweepLedger(t, cells, nil, 1, 0)
	if len(union) != len(full.Records) {
		t.Fatalf("union covers %d cells, want %d", len(union), len(full.Records))
	}
	for _, r := range full.Records {
		id := campaign.CellID{Kind: r.Kind, Policy: r.Policy, Seed: r.Seed}
		got, want := union[id].Canonical(), r.Canonical()
		got.Seq, want.Seq = 0, 0
		if got != want {
			t.Fatalf("cell %+v: resumed record %+v != uninterrupted %+v", id, got, want)
		}
	}
}

// TestCampaignMatchesChecks pins the verify campaign's seed memo: at one
// worker and at eight, with and without a result store, a memoized campaign
// over seeds × the lattice returns for every cell exactly the result an
// unmemoized check of the cell returns. A fuzz campaign over the same seeds,
// which no other test here sweeps, runs first: a memo shared across
// campaign kinds would then serve the verify cells the fuzz program, which
// has no secret symbol.
func TestCampaignMatchesChecks(t *testing.T) {
	seeds := []int64{31, 32, 33}
	pols := policy.Lattice()
	if _, _, err := diffcheck.SweepObserved(context.Background(), diffcheck.CrossCells(seeds, pols, false), diffcheck.Options{}, 2, nil); err != nil {
		t.Fatal(err)
	}
	cells := CrossCells(seeds, pols)
	want := make([]Result, len(cells))
	for i, c := range cells {
		want[i], _ = CheckSeed(c.Seed, Options{Policy: c.Policy})
	}
	for _, workers := range []int{1, 8} {
		store, err := campaign.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Without a store, then against it empty and warm.
		for pass, opt := range []Options{{}, {Cache: store}, {Cache: store}} {
			got, _, err := SweepObserved(context.Background(), cells, opt, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cells {
				if got[i].Cached != (pass == 2) {
					t.Fatalf("%d workers, pass %d, cell %+v: cached=%v", workers, pass, cells[i], got[i].Cached)
				}
				got[i].Cached = false
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%d workers, pass %d, cell %+v:\ncampaign: %+v\ncheck:    %+v", workers, pass, cells[i], got[i], want[i])
				}
			}
		}
		if err := store.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheHitSkipsPreparation pins the laziness of a shared source: a
// check the result store serves never assembles or derives, and a miss
// prepares the check.
func TestCacheHitSkipsPreparation(t *testing.T) {
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := diffcheck.GenSecretProgram(1)
	opt := Options{Policy: policy.ThenCommit, Seed: 1, Cache: store}
	CheckProgram(src, opt)
	s := newSource(src, opt)
	load, loads := s.load, 0
	s.load = func() *prepared { loads++; return load() }
	if res := checkSource(s, opt); !res.Cached || loads != 0 {
		t.Fatalf("warm check: cached=%v, %d loads", res.Cached, loads)
	}
	opt.Policy = policy.ThenIssue
	if res := checkSource(s, opt); res.Cached || loads != 1 {
		t.Fatalf("cold check: cached=%v, %d loads", res.Cached, loads)
	}
}

// TestCampaignRecordCarriesBothRuns: a campaign that collects metrics
// leaves on each cell's record the merge of its two runs' snapshots, which
// the engine then merges into the cell's policy row.
func TestCampaignRecordCarriesBothRuns(t *testing.T) {
	c := Cell{Seed: 3, Policy: policy.ThenCommit}
	var runs []*obs.Snapshot
	CheckSeed(c.Seed, Options{Policy: c.Policy, MetricsSink: func(s *obs.Snapshot) { runs = append(runs, s) }})
	if len(runs) != 2 || runs[0].Counters["pipe.commit"] == 0 {
		t.Fatalf("a check left %d snapshots, want runs A and B with commits", len(runs))
	}
	want := &obs.Snapshot{}
	for _, s := range runs {
		if err := want.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	ch := Campaign(Options{}, []Cell{c}, &campaign.SweepObs{CollectMetrics: true})
	rec := ch.Cell(c)
	if _, err := ch.Check(0, c, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Metrics == nil {
		t.Fatal("record carries no snapshot")
	}
	if !reflect.DeepEqual(rec.Metrics, want) {
		t.Fatalf("record carries %d commits, want runs A and B merged (%d)",
			rec.Metrics.Counters["pipe.commit"], want.Counters["pipe.commit"])
	}
}
