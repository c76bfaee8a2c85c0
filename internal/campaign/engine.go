package campaign

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"

	"authpoint/internal/obs"
	"authpoint/internal/telemetry"
)

// Do runs fn(ctx, i) for every i in [0, n) on a pool of workers goroutines
// (0 or negative means runtime.NumCPU()), dispatching indexes in order. Each
// worker's context carries its index (telemetry.Worker). On the first error
// ctx is cancelled: indexes not yet dispatched are skipped, running ones
// finish, and Do returns the error of the lowest failing index, which is
// deterministic because dispatch is in order and context.Canceled fallout
// never wins. With no failure it returns ctx's error, if any.
func Do(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = max(1, min(workers, n))

	var (
		mu          sync.Mutex
		firstErr    error
		firstErrIdx = -1
	)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		wctx := telemetry.WithWorker(ctx, w)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				err := fn(wctx, idx)
				if err == nil {
					continue
				}
				mu.Lock()
				if !errors.Is(err, context.Canceled) && (firstErrIdx < 0 || idx < firstErrIdx) {
					firstErr, firstErrIdx = err, idx
					cancel()
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Checker is what one kind of campaign supplies to Sweep: how a cell is
// named in the ledger, how it is checked, and which verdicts are findings.
type Checker[C, R any] struct {
	// Cell returns the ledger record naming c: its kind, which must not be
	// empty, and identity fields, no outcome. Every record of the cell
	// starts from it, and resume joins a checkpoint on it.
	Cell func(c C) telemetry.Record
	// Check runs cell i and fills rec, which arrives holding the cell's
	// identity, with the outcome and host_ns, the host time of the check
	// itself, and with the cell's metrics snapshot when it collected one.
	// A non-nil error fails the sweep fast (see Do).
	Check func(i int, c C, rec *telemetry.Record) (R, error)
	// Finding reports whether a verdict is a finding; nil means none is.
	Finding func(verdict string) bool
}

func (ch Checker[C, R]) finding(verdict string) bool {
	return ch.Finding != nil && ch.Finding(verdict)
}

// Report is the outcome of a Sweep.
type Report[R any] struct {
	// Results and Records hold one entry per swept cell, in cell order. A
	// cell the sweep never ran has a zero result and a skipped record.
	Results []R
	Records []telemetry.Record
	// Findings are the results whose verdict is a finding, including
	// re-checked prior findings on resume, ordered by (seed, policy, cell
	// index): the same order at any worker count.
	Findings []R
	// Done counts the cells the resume checkpoint records as complete,
	// which the sweep skipped; Redo counts those among them whose recorded
	// verdict was a finding.
	Done, Redo int
}

// SweepObs carries the campaign-level observability of sweeps: the
// telemetry ledger, the progress meter and, with CollectMetrics, one metrics
// row per policy. All fields are optional; the zero value (or a nil
// *SweepObs) observes nothing. Successive sweeps may share one SweepObs, and
// its rows then span them all.
type SweepObs struct {
	// Ledger receives one record per cell, sequence-numbered in cell order.
	Ledger *telemetry.Ledger
	// Meter is fed one tick per finished cell.
	Meter *telemetry.Meter
	// CollectMetrics asks the checkers to attach an observability hub to
	// every timed run and leave the cell's snapshot on its record
	// (telemetry.Record.Metrics). Sweep merges each snapshot into the
	// cell's policy row as the cell finishes; Rows and Metrics read them.
	CollectMetrics bool

	mu sync.Mutex
	// cells counts the cells of the sweeps so far: a sweep numbers its
	// cells from here, so the numbers order cells across sweeps.
	cells int
	rows  map[string]*metricsRow
}

// PolicyMetrics is one policy's metrics row: the number of its cells that
// left a snapshot, and the merge of those snapshots.
type PolicyMetrics struct {
	Policy string
	Cells  int
	Snap   *obs.Snapshot
}

// metricsRow is a policy row and the number of its first merged cell.
type metricsRow struct {
	PolicyMetrics
	first int
}

// reserve numbers the n cells of a new sweep and returns the first number.
func (s *SweepObs) reserve(n int) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.cells
	s.cells += n
	return base
}

// merge moves the snapshot a finished cell left on its record into the
// row of the cell's policy; cell is the cell's number (see reserve). A
// record without a snapshot counts for nothing.
func (s *SweepObs) merge(cell int, rec *telemetry.Record) {
	if s == nil || rec.Metrics == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rows[rec.Policy]
	if r == nil {
		if s.rows == nil {
			s.rows = map[string]*metricsRow{}
		}
		r = &metricsRow{PolicyMetrics: PolicyMetrics{Policy: rec.Policy, Snap: &obs.Snapshot{}}, first: cell}
		s.rows[rec.Policy] = r
	}
	r.first = min(r.first, cell)
	r.Cells++
	// Merge only fails on histogram bucket-bound mismatches, which cannot
	// happen here: every cell uses the hub's fixed bucket sets.
	_ = r.Snap.Merge(rec.Metrics)
	rec.Metrics = nil
}

// Rows returns the policy rows in the order of each policy's first merged
// cell (cell order within a sweep, sweep order across sweeps), which is the
// same at any worker count. The snapshots are the rows' own: read them,
// do not modify them.
func (s *SweepObs) Rows() []PolicyMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := make([]*metricsRow, 0, len(s.rows))
	for _, r := range s.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].first < rows[b].first })
	out := make([]PolicyMetrics, len(rows))
	for i, r := range rows {
		out[i] = r.PolicyMetrics
	}
	return out
}

// Metrics returns the merge of every policy row: the campaign's total (nil
// when no cell left a snapshot).
func (s *SweepObs) Metrics() *obs.Snapshot {
	rows := s.Rows()
	if len(rows) == 0 {
		return nil
	}
	total := &obs.Snapshot{}
	for _, r := range rows {
		_ = total.Merge(r.Snap)
	}
	return total
}

// Sweep checks cells on a pool of workers (see Do) and reports one result
// and one ledger record per cell, in cell order, plus the findings.
//
// Ledger sequence numbers are reserved in cell order before dispatch, so a
// parallel ledger sorted by seq matches a serial one. Every cell gets a
// record: cells the sweep never ran, because ctx expired, a check failed
// fast or the sweep stopped after a count, get an explicit skipped record,
// so an interrupted ledger has no sequence holes and doubles as a resume
// checkpoint.
//
// With done non-nil the sweep resumes from a checkpoint (see Completed):
// cells it records as complete are not swept, so the union of both ledgers
// covers every cell once, and those whose verdict was a finding are checked
// again outside the ledger, so a resumed campaign reports the same findings
// as an uninterrupted one.
//
// With stopAfter > 0 the sweep runs only the first stopAfter cells it would
// sweep and records the rest as skipped, exactly as when ctx expires, so an
// interrupted campaign's ledger is the same at any worker count and on any
// host. The stop is not an error.
//
// A snapshot a check leaves on its cell's record is merged into so's row
// for the cell's policy as the cell finishes (see SweepObs.Rows), and the
// record drops it; the re-checked prior findings of a resume are merged too.
//
// The error is the lowest-index check error, else ctx's error.
func Sweep[C, R any](ctx context.Context, ch Checker[C, R], cells []C, done map[CellID]string, stopAfter, workers int, so *SweepObs) (Report[R], error) {
	var rep Report[R]
	pending := make([]int, 0, len(cells)) // cell index of each swept cell
	var redo []int
	for i, c := range cells {
		if done != nil {
			if v, ok := done[cellID(ch.Cell(c))]; ok {
				rep.Done++
				if ch.finding(v) {
					redo = append(redo, i)
				}
				continue
			}
		}
		pending = append(pending, i)
	}
	rep.Redo = len(redo)

	var (
		ledger *telemetry.Ledger
		meter  *telemetry.Meter
	)
	if so != nil {
		ledger, meter = so.Ledger, so.Meter
	}
	base := so.reserve(len(cells))
	n := len(pending)
	var seqBase uint64
	if ledger != nil {
		seqBase = ledger.ReserveSeq(n)
	}
	meter.AddTotal(n)
	rep.Results = make([]R, n)
	rep.Records = make([]telemetry.Record, n)

	type found struct {
		cell int
		res  R
		rec  *telemetry.Record
	}
	var (
		mu       sync.Mutex
		findings []found
	)
	run := n
	if stopAfter > 0 {
		run = min(n, stopAfter)
	}
	err := Do(ctx, run, workers, func(ctx context.Context, j int) error {
		defer meter.Tick(1)
		if ctx.Err() != nil {
			return nil // budget expired or a check failed: leave the cell unrun
		}
		i := pending[j]
		rec := &rep.Records[j]
		*rec = ch.Cell(cells[i])
		res, err := ch.Check(i, cells[i], rec)
		rec.Seq = seqBase + uint64(j)
		rec.Worker = telemetry.Worker(ctx)
		so.merge(base+i, rec)
		rep.Results[j] = res
		if ledger != nil {
			ledger.Emit(*rec)
		}
		if ch.finding(rec.Verdict) {
			mu.Lock()
			findings = append(findings, found{i, res, rec})
			mu.Unlock()
		}
		return err
	})
	for j := range rep.Records {
		rec := &rep.Records[j]
		if rec.Kind != "" {
			continue
		}
		*rec = ch.Cell(cells[pending[j]])
		rec.Seq = seqBase + uint64(j)
		rec.Verdict = telemetry.VerdictSkipped
		if ledger != nil {
			ledger.Emit(*rec)
		}
	}
	for _, i := range redo {
		rec := ch.Cell(cells[i])
		res, _ := ch.Check(i, cells[i], &rec)
		so.merge(base+i, &rec)
		if ch.finding(rec.Verdict) {
			findings = append(findings, found{i, res, &rec})
		}
	}
	sort.Slice(findings, func(a, b int) bool {
		x, y := findings[a], findings[b]
		if x.rec.Seed != y.rec.Seed {
			return x.rec.Seed < y.rec.Seed
		}
		if x.rec.Policy != y.rec.Policy {
			return x.rec.Policy < y.rec.Policy
		}
		return x.cell < y.cell
	})
	for _, f := range findings {
		rep.Findings = append(rep.Findings, f.res)
	}
	return rep, err
}

// cellID is the campaign identity of the cell a ledger record names.
func cellID(r telemetry.Record) CellID {
	return CellID{Kind: r.Kind, Policy: r.Policy, Seed: r.Seed, Tamper: r.Tamper, Site: r.Site}
}
