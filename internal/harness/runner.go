package harness

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"authpoint/internal/asm"
	"authpoint/internal/campaign"
	"authpoint/internal/sim"
	"authpoint/internal/telemetry"
	"authpoint/internal/workload"
)

// Outcome is one cell's result from RunAll.
type Outcome struct {
	Spec        Spec
	Measurement Measurement
	Err         error
	// Wall is the host wall-clock time spent producing this cell. A
	// memoized baseline hit reports only the lookup time.
	Wall time.Duration
	// Index is the cell's position in the RunAll input slice.
	Index int
	// Cached reports that the cell was satisfied from the baseline memo
	// without running a new simulation.
	Cached bool
}

// Progress is delivered to a Runner's OnProgress callback after each cell
// finishes. Callbacks are invoked serially (never concurrently), in
// completion order — which under parallelism is not input order; use
// Outcome.Index to correlate.
type Progress struct {
	Done    int // cells finished so far, including this one
	Total   int
	Outcome Outcome
}

// Runner executes sweep cells on a worker pool. Each cell builds its own
// sim.Machine, so cells are independent; the only state shared between
// workers is the read-only assembled program image (see TestProgramImmutable
// in internal/sim, which pins that NewMachine/Run never mutate it) and the
// Runner's baseline memo.
//
// The zero value is a ready-to-use runner at Parallelism = runtime.NumCPU().
type Runner struct {
	// Parallelism is the worker count; 0 or negative means
	// runtime.NumCPU().
	Parallelism int
	// OnProgress, if set, observes each finished cell. Calls are serial,
	// with Done counts delivered in order. The callback runs under the
	// runner's internal lock: keep it quick and never re-enter the Runner
	// from inside it.
	OnProgress func(Progress)

	// Obs, if set, observes every RunAll as a campaign sweep (see
	// campaign.SweepObs): its ledger receives one bench record per cell,
	// its meter one tick per finished cell, and with CollectMetrics every
	// cell is measured with Spec.Metrics on and its snapshot merged into
	// the cell's policy row. A memoized baseline cell (Outcome.Cached)
	// leaves no snapshot, so each measurement is merged once.
	Obs *campaign.SweepObs

	// baselines memoizes decrypt-only baseline measurements keyed on
	// (workload, config with the control point forced to baseline, windows),
	// so a k-policy normalized sweep costs k+1 simulations per workload
	// instead of 2k, and identical configs across experiments share
	// baselines.
	baselines sync.Map // baseKey -> *memoEntry

	baselineSims atomic.Int64
}

// DefaultRunner is the process-wide runner of every experiment whose Params
// name no runner; its baseline memo spans every experiment in the process.
var DefaultRunner = &Runner{}

type baseKey struct {
	w               workload.Workload
	cfg             sim.Config
	warmup, measure uint64
	metrics         bool
}

type memoEntry struct {
	once sync.Once
	m    Measurement
	err  error
}

// BaselineSims returns how many baseline simulations this runner has
// actually executed (memo hits excluded) — the observable for the k+1
// measurement guarantee.
func (r *Runner) BaselineSims() int64 { return r.baselineSims.Load() }

// RunAll runs every spec on the campaign engine's worker pool and returns
// the outcomes in input order, regardless of completion order. On the first
// cell error the context is cancelled: cells not yet started are skipped
// (their Outcome.Err is the context error); cells already running finish
// normally. The returned error is the error of the lowest-index failing
// cell, which is deterministic because cells are dispatched in input order.
// An external ctx cancellation stops dispatch the same way. With Obs, every
// cell gets one bench record, skipped cells an explicit skipped one.
func (r *Runner) RunAll(ctx context.Context, specs []Spec) ([]Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		mu   sync.Mutex
		done int
	)
	bench := campaign.Checker[Spec, Outcome]{
		Cell: func(s Spec) telemetry.Record {
			return telemetry.Record{Kind: "bench", Workload: s.Workload.Name, Policy: s.Config.ControlPoint().String()}
		},
		Check: func(i int, s Spec, rec *telemetry.Record) (Outcome, error) {
			o := r.runOne(s)
			o.Index = i
			rec.SimCycles, rec.Insts, rec.HostNs, rec.Cached = o.Measurement.Cycles, o.Measurement.Insts, o.Wall.Nanoseconds(), o.Cached
			if o.Err != nil {
				rec.Err = o.Err.Error()
			}
			if !o.Cached {
				rec.Metrics = o.Measurement.Metrics
			}
			if r.OnProgress != nil {
				mu.Lock()
				done++
				r.OnProgress(Progress{Done: done, Total: len(specs), Outcome: o})
				mu.Unlock()
			}
			return o, o.Err
		},
	}
	rep, err := campaign.Sweep(ctx, bench, specs, nil, 0, r.Parallelism, r.Obs)
	// Cells never run carry the context error, so callers can tell them from
	// successes: the caller's, or Canceled when a failing cell cancelled the
	// sweep.
	skipErr := ctx.Err()
	if skipErr == nil {
		skipErr = context.Canceled
	}
	for i, rec := range rep.Records {
		if rec.Verdict == telemetry.VerdictSkipped {
			rep.Results[i] = Outcome{Spec: specs[i], Err: skipErr, Index: i}
		}
	}
	return rep.Results, err
}

// runOne executes one cell, routing decrypt-only baseline cells through the
// memo.
func (r *Runner) runOne(s Spec) Outcome {
	start := time.Now()
	if r.Obs != nil && r.Obs.CollectMetrics {
		s.Metrics = true
	}
	o := Outcome{Spec: s}
	if s.Config.ControlPoint().IsBaseline() {
		o.Measurement, o.Cached, o.Err = r.baseline(s)
	} else {
		o.Measurement, o.Err = Measure(s)
	}
	o.Wall = time.Since(start)
	return o
}

// baseline returns the memoized decrypt-only measurement for the spec,
// running it at most once per (workload, config, windows) key per Runner.
// The reported cached flag is true when the measurement already existed.
func (r *Runner) baseline(s Spec) (Measurement, bool, error) {
	key := baseKey{w: s.Workload, cfg: s.Config, warmup: s.WarmupInsts, measure: s.MeasureInsts,
		metrics: s.Metrics}
	// Normalize defaulted windows so explicit-default and zero specs share
	// an entry (Measure applies the same defaulting).
	if key.warmup == 0 {
		key.warmup = DefaultWarmup
	}
	if key.measure == 0 {
		key.measure = DefaultMeasure
	}
	e, _ := r.baselines.LoadOrStore(key, &memoEntry{})
	ent := e.(*memoEntry)
	ran := false
	ent.once.Do(func() {
		ran = true
		r.baselineSims.Add(1)
		ent.m, ent.err = Measure(s)
	})
	return ent.m, !ran, ent.err
}

// --- assembled-image cache -------------------------------------------------

// imageEntry memoizes one source's assembly.
type imageEntry struct {
	once sync.Once
	prog *asm.Program
	err  error
}

// images caches assembled programs by source text, so each of the catalog's
// sources is assembled once per process instead of once per sweep cell. The
// cached *asm.Program is shared read-only across machines — safe because
// sim.NewMachine copies the image into each machine's own memories (pinned
// by TestProgramImmutable in internal/sim).
var images sync.Map // string -> *imageEntry

// assembleCached returns the shared assembled image for src.
func assembleCached(src string) (*asm.Program, error) {
	e, _ := images.LoadOrStore(src, &imageEntry{})
	ent := e.(*imageEntry)
	ent.once.Do(func() { ent.prog, ent.err = asm.Assemble(src) })
	return ent.prog, ent.err
}
