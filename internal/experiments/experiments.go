// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) plus the security matrix (Table 2). Each experiment
// returns a structured result and renders the same rows/series the paper
// reports; EXPERIMENTS.md records the comparison against the published
// numbers.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"authpoint/internal/attack"
	"authpoint/internal/campaign"
	"authpoint/internal/harness"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// Params sets the global sweep knobs.
type Params struct {
	Warmup    uint64
	Measure   uint64
	Workloads []workload.Workload
	// Runner executes the sweep cells; nil uses harness.DefaultRunner
	// (worker pool sized to the host, process-wide baseline memo).
	Runner *harness.Runner
}

func (p Params) runner() *harness.Runner {
	if p.Runner != nil {
		return p.Runner
	}
	return harness.DefaultRunner
}

// DefaultParams covers all 18 kernels at the default windows.
func DefaultParams() Params {
	return Params{
		Warmup:    harness.DefaultWarmup,
		Measure:   harness.DefaultMeasure,
		Workloads: workload.All(),
	}
}

// QuickParams is a fast subset for smoke runs.
func QuickParams() Params {
	names := []string{"mcfx", "twolfx", "gccx", "swimx", "artx", "lucasx"}
	var ws []workload.Workload
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			panic("unknown quick workload " + n)
		}
		ws = append(ws, w)
	}
	return Params{Warmup: 10_000, Measure: 40_000, Workloads: ws}
}

// PerfPolicies is the order the paper plots (Figure 7): five authentication
// control points plus address obfuscation on top of then-commit.
var PerfPolicies = []policy.ControlPoint{
	policy.ThenIssue,
	policy.ThenWrite,
	policy.ThenCommit,
	policy.ThenFetch,
	policy.CommitPlusFetch,
	policy.CommitPlusObfuscation,
}

// IPCRow is one workload's results across control points.
type IPCRow struct {
	Workload string
	FP       bool
	// BaselineIPC is the decrypt-only IPC everything normalizes against.
	BaselineIPC float64
	// IPC maps control point -> absolute measured IPC.
	IPC map[policy.ControlPoint]float64
}

// Normalized returns IPC(policy)/IPC(baseline).
func (r IPCRow) Normalized(p policy.ControlPoint) float64 {
	if r.BaselineIPC == 0 {
		return 0
	}
	return r.IPC[p] / r.BaselineIPC
}

// Sweep is a full normalized-IPC experiment (the Figure 7/10/12 family).
type Sweep struct {
	Title    string
	Policies []policy.ControlPoint
	Rows     []IPCRow
}

// MeanNormalized returns the arithmetic mean of normalized IPC for a control
// point (the paper's "average IPC" statements).
func (s *Sweep) MeanNormalized(p policy.ControlPoint) float64 {
	if len(s.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range s.Rows {
		sum += r.Normalized(p)
	}
	return sum / float64(len(s.Rows))
}

// Variant mutates the machine configuration for a sweep (L2 size, RUU size,
// tree mode, remap cache size...).
type Variant func(*sim.Config)

// RunSweep measures every workload under the baseline plus each control
// point. The cells fan out over the runner's worker pool; results fold back
// in input order, so the rendered rows/series are identical to a serial run.
// Baseline cells hit the runner's memo when an identical (workload, config,
// windows) baseline was already measured this process.
func RunSweep(title string, p Params, policies []policy.ControlPoint, variant Variant) (*Sweep, error) {
	sw := &Sweep{Title: title, Policies: policies}
	cell := func(w workload.Workload, pt policy.ControlPoint) harness.Spec {
		cfg := sim.DefaultConfig()
		if variant != nil {
			variant(&cfg)
		}
		cfg.Policy = pt
		return harness.Spec{Workload: w, Config: cfg, WarmupInsts: p.Warmup, MeasureInsts: p.Measure}
	}
	var specs []harness.Spec
	for _, w := range p.Workloads {
		specs = append(specs, cell(w, policy.Baseline))
		for _, pt := range policies {
			specs = append(specs, cell(w, pt))
		}
	}
	outs, err := p.runner().RunAll(context.Background(), specs)
	if err != nil {
		for _, o := range outs {
			if o.Err != nil && !errors.Is(o.Err, context.Canceled) {
				return nil, fmt.Errorf("%s %v: %w", o.Spec.Workload.Name, o.Spec.Config.ControlPoint(), o.Err)
			}
		}
		return nil, err
	}
	i := 0
	for _, w := range p.Workloads {
		row := IPCRow{Workload: w.Name, FP: w.FP, IPC: map[policy.ControlPoint]float64{}}
		row.BaselineIPC = outs[i].Measurement.IPC
		i++
		for _, pt := range policies {
			row.IPC[pt] = outs[i].Measurement.IPC
			i++
		}
		sw.Rows = append(sw.Rows, row)
	}
	return sw, nil
}

// colWidth sizes a table column to the longest policy name in the set
// (canonical names run up to 30 characters for the paper's combinations,
// longer for deep lattice points).
func colWidth(policies []policy.ControlPoint) int {
	w := 18
	for _, p := range policies {
		if n := len(p.String()); n > w {
			w = n
		}
	}
	return w
}

// Render prints the sweep as a normalized-IPC table.
func (s *Sweep) Render(w io.Writer) {
	cw := colWidth(s.Policies)
	fmt.Fprintf(w, "%s\n", s.Title)
	fmt.Fprintf(w, "%-10s %9s", "workload", "base-IPC")
	for _, sc := range s.Policies {
		fmt.Fprintf(w, " %*s", cw, sc)
	}
	fmt.Fprintln(w)
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-10s %9.3f", r.Workload, r.BaselineIPC)
		for _, sc := range s.Policies {
			fmt.Fprintf(w, " %*.3f", cw, r.Normalized(sc))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s %9s", "MEAN", "")
	for _, sc := range s.Policies {
		fmt.Fprintf(w, " %*.3f", cw, s.MeanNormalized(sc))
	}
	fmt.Fprintln(w)
}

// SpeedupRow is one workload's IPC speedup over authen-then-issue (Figure
// 8/11/13 family).
type SpeedupRow struct {
	Workload string
	Speedup  map[policy.ControlPoint]float64
}

// Speedups derives the Figure 8-style view from a sweep: IPC(policy) /
// IPC(then-issue).
func (s *Sweep) Speedups(policies []policy.ControlPoint) []SpeedupRow {
	var out []SpeedupRow
	for _, r := range s.Rows {
		ref := r.IPC[policy.ThenIssue]
		row := SpeedupRow{Workload: r.Workload, Speedup: map[policy.ControlPoint]float64{}}
		for _, sc := range policies {
			if ref > 0 {
				row.Speedup[sc] = r.IPC[sc] / ref
			}
		}
		out = append(out, row)
	}
	return out
}

// RenderSpeedups prints a Figure 8-style table.
func RenderSpeedups(w io.Writer, title string, rows []SpeedupRow, policies []policy.ControlPoint) {
	cw := colWidth(policies)
	fmt.Fprintf(w, "%s\n%-10s", title, "workload")
	for _, sc := range policies {
		fmt.Fprintf(w, " %*s", cw, sc)
	}
	fmt.Fprintln(w)
	means := map[policy.ControlPoint]float64{}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Workload)
		for _, sc := range policies {
			fmt.Fprintf(w, " %*.3f", cw, r.Speedup[sc])
			means[sc] += r.Speedup[sc]
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "MEAN")
	for _, sc := range policies {
		fmt.Fprintf(w, " %*.3f", cw, means[sc]/float64(len(rows)))
	}
	fmt.Fprintln(w)
}

// --- Figure 7 -------------------------------------------------------------

// Fig7 runs one quadrant of Figure 7: normalized IPC of the six control
// points for INT or FP workloads at the given L2 size.
func Fig7(p Params, fp bool, l2B, l2Lat int) (*Sweep, error) {
	var ws []workload.Workload
	for _, w := range p.Workloads {
		if w.FP == fp {
			ws = append(ws, w)
		}
	}
	p.Workloads = ws
	kind := "INT"
	if fp {
		kind = "FP"
	}
	title := fmt.Sprintf("Figure 7: normalized IPC, %s, %dKB L2 (baseline: decryption only)", kind, l2B>>10)
	return RunSweep(title, p, PerfPolicies, func(c *sim.Config) {
		c.Mem.L2B = l2B
		c.Mem.L2Lat = l2Lat
	})
}

// --- Figure 9 -------------------------------------------------------------

// Fig9Point is one re-map cache size's mean normalized IPC.
type Fig9Point struct {
	RemapCacheB int
	PerRow      []IPCRow
	Mean        float64
}

// Fig9 sweeps the address-obfuscation re-map cache size under then-commit +
// obfuscation (paper: IPC improves with re-map cache size).
func Fig9(p Params, sizes []int) ([]Fig9Point, error) {
	var out []Fig9Point
	for _, size := range sizes {
		size := size
		sw, err := RunSweep(
			fmt.Sprintf("Figure 9: obfuscation re-map cache %dKB", size>>10),
			p, []policy.ControlPoint{policy.CommitPlusObfuscation},
			func(c *sim.Config) { c.Sec.RemapCacheB = size },
		)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig9Point{
			RemapCacheB: size,
			PerRow:      sw.Rows,
			Mean:        sw.MeanNormalized(policy.CommitPlusObfuscation),
		})
	}
	return out, nil
}

// RenderFig9 prints the re-map sweep.
func RenderFig9(w io.Writer, pts []Fig9Point) {
	fmt.Fprintln(w, "Figure 9: normalized IPC vs re-map cache size (obfuscation + then-commit)")
	fmt.Fprintf(w, "%-10s", "workload")
	for _, pt := range pts {
		fmt.Fprintf(w, " %10dKB", pt.RemapCacheB>>10)
	}
	fmt.Fprintln(w)
	if len(pts) == 0 {
		return
	}
	for i := range pts[0].PerRow {
		fmt.Fprintf(w, "%-10s", pts[0].PerRow[i].Workload)
		for _, pt := range pts {
			fmt.Fprintf(w, " %12.3f", pt.PerRow[i].Normalized(policy.CommitPlusObfuscation))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "MEAN")
	for _, pt := range pts {
		fmt.Fprintf(w, " %12.3f", pt.Mean)
	}
	fmt.Fprintln(w)
}

// --- Figures 10-13 ---------------------------------------------------------

// Fig10Policies are the four control points of the RUU study.
var Fig10Policies = []policy.ControlPoint{
	policy.ThenIssue, policy.ThenWrite, policy.ThenCommit, policy.CommitPlusFetch,
}

// Fig10 runs the 64-entry RUU sensitivity study.
func Fig10(p Params) (*Sweep, error) {
	return RunSweep("Figure 10: normalized IPC, 64-entry RUU, 256KB L2", p, Fig10Policies,
		func(c *sim.Config) {
			c.Pipeline.RUUSize = 64
			c.Pipeline.LSQSize = 32
		})
}

// Fig12Policies are the five control points of the MAC-tree study.
var Fig12Policies = []policy.ControlPoint{
	policy.ThenIssue, policy.ThenWrite, policy.ThenCommit,
	policy.ThenFetch, policy.CommitPlusFetch,
}

// Fig12 runs the MAC-tree (CHTree-style) authentication study. The baseline
// stays decryption-only, as in the paper. Tree-mode runs simulate several
// times more cycles per instruction, so the windows are scaled down to keep
// the sweep tractable; normalized IPC is a ratio and stabilizes quickly.
func Fig12(p Params) (*Sweep, error) {
	p.Warmup = p.Warmup/2 + 1
	p.Measure = p.Measure/3 + 1
	return RunSweep("Figure 12: normalized IPC under MAC-tree authentication", p, Fig12Policies,
		func(c *sim.Config) { c.Sec.UseTree = true })
}

// --- Table 2 ----------------------------------------------------------------

// Table2Row is one control point's demonstrated security properties.
type Table2Row struct {
	Policy policy.ControlPoint
	// PreventsFetchLeak: the pointer-conversion exploit failed to disclose
	// the secret through fetch addresses.
	PreventsFetchLeak bool
	// PreciseException: the I/O-port disclosing kernel could not retire its
	// OUT (no unverified instruction changed architectural state).
	PreciseException bool
	// AuthenticatedMemory: tainted data never persisted to external memory.
	AuthenticatedMemory bool
	// AuthenticatedProcessor: same witness as PreciseException (retirement
	// of unverified results).
	AuthenticatedProcessor bool
	// Detected: the tampering raised a security exception at all.
	Detected bool
}

// Table2Policies are the paper's five rows.
var Table2Policies = []policy.ControlPoint{
	policy.ThenIssue,
	policy.ThenWrite,
	policy.ThenCommit,
	policy.CommitPlusFetch,
	policy.CommitPlusObfuscation,
}

// Table2 demonstrates every cell of the characteristics matrix by running
// the exploit suite against each control point. The per-policy exploit runs
// are independent (each builds its own machines), so they fan out across
// the campaign worker pool, one worker per policy; rows come back in policy
// order.
func Table2() ([]Table2Row, error) {
	rows := make([]Table2Row, len(Table2Policies))
	err := campaign.Do(context.Background(), len(rows), len(rows), func(_ context.Context, i int) error {
		pt := Table2Policies[i]
		pc, err := attack.PointerConversion(pt)
		if err != nil {
			return err
		}
		io_, err := attack.IOPortDisclosure(pt)
		if err != nil {
			return err
		}
		mt, err := attack.MemoryTaint(pt)
		if err != nil {
			return err
		}
		rows[i] = Table2Row{
			Policy:                 pt,
			PreventsFetchLeak:      !pc.Leaked,
			PreciseException:       !io_.Leaked && io_.Detected,
			AuthenticatedMemory:    !mt.Leaked,
			AuthenticatedProcessor: !io_.Leaked && io_.Detected,
			Detected:               pc.Detected,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable2 prints the matrix in the paper's layout.
func RenderTable2(w io.Writer, rows []Table2Row) {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	fmt.Fprintln(w, "Table 2: characteristics comparison (every cell demonstrated by running the exploit suite)")
	fmt.Fprintf(w, "%-30s %12s %10s %10s %10s\n", "", "prevent-leak", "precise-ex", "auth-mem", "auth-proc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %12s %10s %10s %10s\n", r.Policy,
			mark(r.PreventsFetchLeak), mark(r.PreciseException),
			mark(r.AuthenticatedMemory), mark(r.AuthenticatedProcessor))
	}
}
