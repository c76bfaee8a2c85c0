package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"authpoint/internal/obs"
	"authpoint/internal/telemetry"
)

func TestDoRunsEveryIndex(t *testing.T) {
	var hits [50]int32
	err := Do(context.Background(), len(hits), 4, func(ctx context.Context, i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

// The returned error is deterministically the lowest-index failure, no
// matter which worker errors first.
func TestDoLowestErrorWins(t *testing.T) {
	err := Do(context.Background(), 32, 4, func(ctx context.Context, i int) error {
		return fmt.Errorf("fail %d", i)
	})
	if err == nil || err.Error() != "fail 0" {
		t.Fatalf("err = %v, want fail 0", err)
	}
}

func TestDoFailFastSkipsRemaining(t *testing.T) {
	var ran int32
	boom := errors.New("boom")
	err := Do(context.Background(), 100_000, 2, func(ctx context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := atomic.LoadInt32(&ran); n >= 100_000 {
		t.Fatalf("error did not stop the feed: all %d indexes ran", n)
	}
}

func TestDoParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Do(ctx, 10, 2, func(ctx context.Context, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// fakeCell is a cell of the fake checker: its verdict is fixed up front.
type fakeCell struct {
	Seed    int64
	Policy  string
	Tamper  bool
	Verdict string
}

// fakeChecker names cells like the fuzz campaign and reports "bad"
// verdicts as findings; its result is the cell itself.
func fakeChecker(ran *atomic.Int64) Checker[fakeCell, fakeCell] {
	return Checker[fakeCell, fakeCell]{
		Cell: func(c fakeCell) telemetry.Record {
			return telemetry.Record{Kind: "fake", Policy: c.Policy, Seed: c.Seed, Tamper: c.Tamper}
		},
		Check: func(_ int, c fakeCell, rec *telemetry.Record) (fakeCell, error) {
			if ran != nil {
				ran.Add(1)
			}
			rec.Verdict = c.Verdict
			rec.SimCycles = uint64(c.Seed) * 10
			return c, nil
		},
		Finding: func(v string) bool { return v == "bad" },
	}
}

// fakeCells is a cross campaign over seeds 1..8 and two policies, the
// untampered cells first, then the tampered ones. Findings tie on (seed,
// policy) between an untampered and a tamper cell.
func fakeCells() []fakeCell {
	var cells []fakeCell
	for _, tamper := range []bool{false, true} {
		for s := int64(8); s >= 1; s-- {
			for _, p := range []string{"b", "a"} {
				v := "ok"
				if s%3 == 0 || (tamper && s%2 == 0) {
					v = "bad"
				}
				cells = append(cells, fakeCell{Seed: s, Policy: p, Tamper: tamper, Verdict: v})
			}
		}
	}
	return cells
}

// TestSweepFindingOrderTies pins the finding order: (seed, policy), with
// ties broken by cell index, at any worker count.
func TestSweepFindingOrderTies(t *testing.T) {
	cells := fakeCells()
	// Seeds 3 and 6 hold an untampered and a tamper finding under each
	// policy: the untampered cell comes first in the cell list, so first.
	want := []fakeCell{
		{2, "a", true, "bad"}, {2, "b", true, "bad"},
		{3, "a", false, "bad"}, {3, "a", true, "bad"}, {3, "b", false, "bad"}, {3, "b", true, "bad"},
		{4, "a", true, "bad"}, {4, "b", true, "bad"},
		{6, "a", false, "bad"}, {6, "a", true, "bad"}, {6, "b", false, "bad"}, {6, "b", true, "bad"},
		{8, "a", true, "bad"}, {8, "b", true, "bad"},
	}
	for _, workers := range []int{1, 8} {
		rep, err := Sweep(context.Background(), fakeChecker(nil), cells, nil, 0, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Findings, want) {
			t.Fatalf("workers=%d: findings\n%+v\nwant\n%+v", workers, rep.Findings, want)
		}
		if !reflect.DeepEqual(rep.Results, cells) {
			t.Fatalf("workers=%d: results not in cell order", workers)
		}
	}
}

// sweepLedger sweeps cells, resuming from done and stopping after
// stopAfter cells, into an in-memory ledger and returns the ledger and its
// records sorted by seq and canonicalized.
func sweepLedger(t *testing.T, cells []fakeCell, done map[CellID]string, stopAfter, workers int) (*telemetry.LedgerFile, []byte) {
	t.Helper()
	var buf bytes.Buffer
	l := telemetry.NewLedger(&buf)
	if err := l.WriteHeader(telemetry.NewHeader("engine-test", workers)); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(context.Background(), fakeChecker(nil), cells, done, stopAfter, workers, &SweepObs{Ledger: l}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lf, err := telemetry.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Validate(); err != nil {
		t.Fatal(err)
	}
	lf.SortBySeq()
	var out bytes.Buffer
	for _, r := range lf.Records {
		fmt.Fprintf(&out, "%+v\n", r.Canonical())
	}
	return lf, out.Bytes()
}

func TestSweepLedgerSerialParallelIdentity(t *testing.T) {
	cells := fakeCells()
	_, serial := sweepLedger(t, cells, nil, 0, 1)
	_, parallel := sweepLedger(t, cells, nil, 0, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("canonical ledgers differ:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestSweepStopAfter pins the deterministic stop: a sweep stopped after n
// cells completes exactly the first n and records the rest as skipped, in
// the same canonical ledger at any worker count, and resuming from that
// ledger completes every other cell, so the two ledgers cover each cell
// once.
func TestSweepStopAfter(t *testing.T) {
	cells := fakeCells()
	const n = 13
	lf, serial := sweepLedger(t, cells, nil, n, 1)
	for _, workers := range []int{2, 8} {
		if _, got := sweepLedger(t, cells, nil, n, workers); !bytes.Equal(got, serial) {
			t.Fatalf("stopped ledger at %d workers differs from serial:\n%s\nserial:\n%s", workers, got, serial)
		}
	}
	for i, r := range lf.Records {
		if skipped := r.Verdict == telemetry.VerdictSkipped; skipped != (i >= n) {
			t.Fatalf("record %d of a sweep stopped after %d has verdict %q", i, n, r.Verdict)
		}
	}
	done := Completed(lf)
	if len(done) != n {
		t.Fatalf("stopped ledger completes %d cells, want %d", len(done), n)
	}
	resumed, _ := sweepLedger(t, cells, done, 0, 8)
	covered := map[CellID]int{}
	for _, l := range []*telemetry.LedgerFile{lf, resumed} {
		for id := range Completed(l) {
			covered[id]++
		}
	}
	for _, c := range cells {
		id := CellID{Kind: "fake", Policy: c.Policy, Seed: c.Seed, Tamper: c.Tamper}
		if covered[id] != 1 {
			t.Fatalf("cell %+v completed %d times across the two ledgers", id, covered[id])
		}
	}
	if len(covered) != len(cells) {
		t.Fatalf("the two ledgers cover %d cells, want %d", len(covered), len(cells))
	}
}

// TestSweepSkippedRecords: a sweep whose context is already spent runs
// nothing, yet records every cell, explicitly skipped, under its identity.
func TestSweepSkippedRecords(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := fakeCells()
	var ran atomic.Int64
	rep, err := Sweep(ctx, fakeChecker(&ran), cells, nil, 0, 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 || len(rep.Findings) != 0 {
		t.Fatalf("spent context ran %d cells, %d findings", ran.Load(), len(rep.Findings))
	}
	for i, r := range rep.Records {
		c := cells[i]
		want := telemetry.Record{Seq: uint64(i), Kind: "fake", Policy: c.Policy, Seed: c.Seed, Tamper: c.Tamper,
			Verdict: telemetry.VerdictSkipped}
		if r != want {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
}

// TestSweepResume pins the engine's resume: cells the checkpoint records as
// done are not swept, prior findings are checked again outside the ledger,
// and the findings match an uninterrupted sweep's.
func TestSweepResume(t *testing.T) {
	cells := fakeCells()
	full, err := Sweep(context.Background(), fakeChecker(nil), cells, nil, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := map[CellID]string{}
	for _, c := range cells[:len(cells)/2] {
		done[CellID{Kind: "fake", Policy: c.Policy, Seed: c.Seed, Tamper: c.Tamper}] = c.Verdict
	}
	var ran atomic.Int64
	rep, err := Sweep(context.Background(), fakeChecker(&ran), cells, done, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	redo := 0
	for _, c := range cells[:len(cells)/2] {
		if c.Verdict == "bad" {
			redo++
		}
	}
	if rep.Done != len(cells)/2 || rep.Redo != redo || len(rep.Results) != len(cells)-rep.Done {
		t.Fatalf("done=%d redo=%d swept=%d, want %d, %d, %d",
			rep.Done, rep.Redo, len(rep.Results), len(cells)/2, redo, len(cells)-len(cells)/2)
	}
	if got := ran.Load(); got != int64(len(rep.Results)+redo) {
		t.Fatalf("ran %d checks, want %d swept + %d re-checked", got, len(rep.Results), redo)
	}
	if !reflect.DeepEqual(rep.Results, cells[len(cells)/2:]) {
		t.Fatal("resume swept the wrong cells")
	}
	if !reflect.DeepEqual(rep.Findings, full.Findings) {
		t.Fatalf("resumed findings\n%+v\nwant\n%+v", rep.Findings, full.Findings)
	}
}

// metricsCell is a cell of the metrics checker: its policy, a seed that
// sets its snapshot, whether it leaves one, and how long its check takes.
type metricsCell struct {
	Policy string
	Seed   int64
	Snap   bool
	Delay  time.Duration
}

// cellSnapshot is the snapshot a metrics cell leaves: a count, a sum and a
// one-sample histogram that every merge must carry.
func cellSnapshot(c metricsCell) *obs.Snapshot {
	v := uint64(c.Seed)
	counts := []uint64{0, 0, 0}
	counts[v%3] = 1
	return &obs.Snapshot{
		Counters:   map[string]uint64{"cells": 1, "seed." + c.Policy: v},
		Histograms: map[string]obs.HistSnapshot{"h": {Bounds: []uint64{2, 20}, Counts: counts, Sum: v, Count: 1, Max: v}},
	}
}

// metricsChecker leaves each cell's snapshot on its record after the cell's
// delay.
func metricsChecker() Checker[metricsCell, int64] {
	return Checker[metricsCell, int64]{
		Cell: func(c metricsCell) telemetry.Record {
			return telemetry.Record{Kind: "fake", Policy: c.Policy, Seed: c.Seed}
		},
		Check: func(_ int, c metricsCell, rec *telemetry.Record) (int64, error) {
			time.Sleep(c.Delay)
			rec.Verdict = "ok"
			if c.Snap {
				rec.Metrics = cellSnapshot(c)
			}
			return c.Seed, nil
		},
	}
}

// TestSweepMetricsRows pins the per-policy metrics rows: across two sweeps
// on one SweepObs, at 1 and 8 workers with random check times, the rows
// come in the order of each policy's first merged cell, count only the
// cells that left a snapshot, hold the same merges, and sum to a plain
// merge of every snapshot. The first cell to leave a snapshot is the
// slowest, so at 8 workers its policy is not the first to finish one.
func TestSweepMetricsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sweep := func(pols []string, seed0 int64) []metricsCell {
		var cells []metricsCell
		for s := seed0; s < seed0+6; s++ {
			for _, p := range pols {
				cells = append(cells, metricsCell{Policy: p, Seed: s, Snap: p != "none" && s%4 != 1,
					Delay: time.Duration(rng.Intn(300)) * time.Microsecond})
			}
		}
		return cells
	}
	// No seed-1 cell leaves a snapshot, and "none" leaves none: the first
	// snapshot is cell 4's, policy "c" at seed 2.
	first := sweep([]string{"none", "c", "a"}, 1)
	first[4].Delay = 20 * time.Millisecond
	second := sweep([]string{"b", "a", "d"}, 11)
	total := &obs.Snapshot{}
	want := map[string]int{}
	for _, c := range append(append([]metricsCell(nil), first...), second...) {
		if c.Snap {
			if err := total.Merge(cellSnapshot(c)); err != nil {
				t.Fatal(err)
			}
			want[c.Policy]++
		}
	}

	rows := func(workers int) ([]PolicyMetrics, *obs.Snapshot) {
		so := &SweepObs{CollectMetrics: true}
		for _, cells := range [][]metricsCell{first, second} {
			rep, err := Sweep(context.Background(), metricsChecker(), cells, nil, 0, workers, so)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rep.Records {
				if r.Metrics != nil {
					t.Fatalf("workers=%d: record %d still carries its merged snapshot", workers, i)
				}
			}
		}
		return so.Rows(), so.Metrics()
	}
	serial, serialTotal := rows(1)
	var order []string
	for _, r := range serial {
		order = append(order, r.Policy)
		if r.Cells != want[r.Policy] {
			t.Errorf("policy %s merged %d cells, want the %d that left a snapshot", r.Policy, r.Cells, want[r.Policy])
		}
	}
	if !reflect.DeepEqual(order, []string{"c", "a", "b", "d"}) {
		t.Errorf("rows in order %v, want c a b d", order)
	}
	if !reflect.DeepEqual(serialTotal, total) {
		t.Errorf("total %+v, want the plain merge %+v", serialTotal, total)
	}
	parallel, parallelTotal := rows(8)
	if !reflect.DeepEqual(parallel, serial) {
		t.Errorf("rows at 8 workers differ from serial: %s, serial %s", rowString(parallel), rowString(serial))
	}
	if !reflect.DeepEqual(parallelTotal, total) {
		t.Errorf("total at 8 workers %+v, want %+v", parallelTotal, total)
	}
	if (&SweepObs{}).Metrics() != nil {
		t.Error("a SweepObs no cell merged into has a total")
	}
}

// rowString names each row's policy, cells and merged seed count.
func rowString(rows []PolicyMetrics) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, " %s:%d/%d", r.Policy, r.Cells, r.Snap.Counters["cells"])
	}
	return b.String()
}

// TestSweepMetricsResume: the prior findings a resume checks again are
// merged into their policy rows too, as every cell of an uninterrupted
// sweep is.
func TestSweepMetricsResume(t *testing.T) {
	cells := fakeCells()
	ch := fakeChecker(nil)
	check := ch.Check
	ch.Check = func(i int, c fakeCell, rec *telemetry.Record) (fakeCell, error) {
		res, err := check(i, c, rec)
		rec.Metrics = &obs.Snapshot{Counters: map[string]uint64{"seed": uint64(c.Seed)}}
		return res, err
	}
	done := map[CellID]string{}
	findings := map[string]int{}
	for _, c := range cells {
		done[CellID{Kind: "fake", Policy: c.Policy, Seed: c.Seed, Tamper: c.Tamper}] = c.Verdict
		if c.Verdict == "bad" {
			findings[c.Policy]++
		}
	}
	so := &SweepObs{CollectMetrics: true}
	if _, err := Sweep(context.Background(), ch, cells, done, 0, 4, so); err != nil {
		t.Fatal(err)
	}
	rows := so.Rows()
	if len(rows) != 2 || rows[0].Policy != "b" || rows[0].Cells != findings["b"] || rows[1].Cells != findings["a"] {
		t.Fatalf("rows %+v, want b then a with the %d and %d re-checked findings", rows, findings["b"], findings["a"])
	}
}
