// Command authperf is the repository's benchmark. It runs one of five
// workloads — three normalized-IPC sweeps, a differential fuzz campaign and
// a leakage-contract campaign — for a fixed time, checks every simulated
// output against golden files or invariants, and prints each end-to-end
// metric (or, with -trace 1, each per-layer metric) as "workload metric
// value unit", followed by one JSON line. Run from the repository root:
//
//	bash bench/run.sh -workload fuzz-tamper -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh                       # every workload, one at a time
//	bash bench/run.sh compare <base-dir> <head-dir>
//
// See bench/README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"authpoint/internal/prof"
)

// A run sets its workload up several times; setup_s is the median.
const (
	minSetups    = 3
	maxSetups    = 50
	setupSeconds = 0.5
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	update   bool
	out      string // result files, traces and scratch stores
	scratch  string // scratch stores, under out
	golden   string // golden-file directory; "" reads the embedded files
	toy      bool   // smoke-test sizes
}

func main() {
	// One processor: the cells already run on one worker, and with the
	// collector's work on the same processor nothing the process does
	// depends on what the host runs on its other CPUs.
	runtime.GOMAXPROCS(1)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	c, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "authperf:", err)
		return 2
	}
	if c.workload == "" {
		return runAll(args, stdout, stderr)
	}
	rf, err := run(c, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "authperf:", err)
		return 1
	}
	if !rf.Correct {
		for _, f := range rf.Failures {
			fmt.Fprintln(stderr, "authperf: failed cell:", f)
		}
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("authperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run; empty runs every workload, each in a child process")
	fs.Int64Var(&c.seed, "seed", defaultSeed, "first campaign seed (sweeps ignore it)")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	fs.BoolVar(&c.update, "update", false, "regenerate the golden outputs at the default seed")
	fs.StringVar(&c.out, "out", filepath.Join(".bench_build", "authperf"), "directory for results, traces and scratch stores")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *trace != 0 && *trace != 1:
		return c, fmt.Errorf("-trace must be 0 or 1")
	case c.seconds < 0:
		return c, fmt.Errorf("-seconds must not be negative")
	case c.update && c.seed != defaultSeed:
		return c, fmt.Errorf("-update records the default seed %d", defaultSeed)
	}
	if _, ok := findWorkload(c.workload); c.workload != "" && !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return c, fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(names, ", "))
	}
	c.trace = *trace == 1
	return c, nil
}

// runAll runs every workload in its own child process, one at a time, and
// relays their metric lines.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "authperf:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		for _, l := range lines {
			if !strings.HasPrefix(l, "{") {
				fmt.Fprintln(stdout, l)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "authperf: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// hostLabel identifies the machine a result was measured on.
type hostLabel struct {
	NumCPU    int     `json:"num_cpu"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	CalibNs   float64 `json:"calib_ns"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// resultFile is what a run records in its run directory; compare reads it.
type resultFile struct {
	Schema      string    `json:"schema"`
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Seconds     float64   `json:"seconds"`
	Trace       bool      `json:"trace"`
	StartUnixNs int64     `json:"start_unix_ns"`
	Host        hostLabel `json:"host"`
	summary
	// Unscaled holds an untraced run's end-to-end metrics as measured on
	// this host, before scaling to the reference host.
	Unscaled metricSet `json:"unscaled,omitempty"`
	Cells    int       `json:"cells"` // cells measured
	Failures []string  `json:"failures,omitempty"`
}

const resultSchema = "authperf/result/v1"

// record checks one sample and counts it.
func (rf *resultFile) record(d workloadDef, s sample, golden map[string]row) {
	rf.Attempted++
	if why := d.check(s, golden); why != "" {
		rf.Failed++
		if len(rf.Failures) < 10 {
			rf.Failures = append(rf.Failures, why)
		}
	}
}

func run(c config, w io.Writer) (*resultFile, error) {
	def, _ := findWorkload(c.workload)
	c.scratch = filepath.Join(c.out, "tmp")
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, err
	}
	var golden map[string]row
	if !c.update && (def.sweep || c.seed == defaultSeed) {
		var err error
		if golden, err = loadGolden(c.golden, def.name); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	rf := &resultFile{
		Schema: resultSchema, Workload: def.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		StartUnixNs: start.UnixNano(),
		Host: hostLabel{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH},
	}
	// The host label takes calibration samples before set-up and after the
	// measurement, outside every timed interval.
	calib := calibrate(3)

	inst, setups, scales, err := setUp(def, c)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintln(os.Stderr, "authperf: cleanup:", err)
		}
	}()
	if c.update {
		rf.Correct = true
		return rf, update(c, def, inst, w)
	}

	runDir := filepath.Join(c.out, "runs", fmt.Sprintf("%s-seed%d-trace%d-%d", def.name, c.seed, btoi(c.trace), start.UnixNano()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	budget := c.seconds
	stopProf := func() {}
	scale := hostScale
	if c.trace {
		// The traced run splits its time between an untraced, profiled
		// phase and the traced phase. It reports no end-to-end metric, so
		// it does not scale, and the profile holds only the workload.
		budget /= 2
		scale = nil
		if stopProf, err = prof.Start(filepath.Join(runDir, "cpu.pprof")); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	tl := tally{firstNs: map[int]float64{}}
	err = measure(inst, budget, scale, func(s []sample, d time.Duration) {
		for _, sm := range s {
			rf.record(def, sm, golden)
		}
		tl.add(s, d)
	})
	stopProf()
	if err != nil {
		return nil, err
	}
	rf.Cells = tl.cells
	rf.Host.CalibNs = median(append(calib, calibrate(3)...))
	if c.trace {
		vals, err := traced(c, def, inst, tl.firstNs, budget, golden, rf, runDir)
		if err != nil {
			return nil, err
		}
		rf.Metrics = fill(perLayer, vals)
	} else {
		scaled := make([]float64, len(setups))
		for i, s := range setups {
			scaled[i] = s * scales[i]
		}
		rf.Metrics = fill(endToEnd, tl.values(tl.scaled, scaled))
		rf.Unscaled = fill(endToEnd, tl.values(tl.raw, setups))
	}
	rf.Correct = rf.Failed == 0
	if err := writeJSON(filepath.Join(runDir, "result.json"), rf); err != nil {
		return nil, err
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rf.Metrics[d.Name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", def.name, d.Name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rf.summary)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rf, nil
}

// setUp builds the workload at least minSetups times, and again while the
// set-ups have taken under setupSeconds (at most maxSetups times; the smoke
// test stops at minSetups), and keeps the last instance; it returns every
// set-up time in seconds and the setupScale sampled after each. Each set-up
// starts from a collected heap and runs with collection held off, so a set-up
// times its own work and allocation but not a collection that happens to
// fall in it: with the collector free to run, the set-up medians of ten runs
// of one workload spread by up to 36% (interquartile range over median).
func setUp(def workloadDef, c config) (inst instance, secs, scales []float64, err error) {
	total := 0.0
	for i := 0; i < minSetups || (!c.toy && i < maxSetups && total < setupSeconds); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t := time.Now()
		inst, err = def.setup(c)
		secs = append(secs, time.Since(t).Seconds())
		scales = append(scales, setupScale())
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, nil, nil, err
		}
		total += secs[i]
	}
	return inst, secs, scales, nil
}

// measure runs blocks, and passes, until the budget is spent: a further
// block starts only if it is expected to end nearer the budget than not
// starting it would. At least one block runs. Each block's cells go to
// each, with the time spent inside the block's campaign or sweep call;
// scale is passed on to runBlock.
func measure(inst instance, budget float64, scale func() float64, each func([]sample, time.Duration)) error {
	start := time.Now()
	blocks := 0
	for {
		n, err := inst.newPass()
		if err != nil {
			return err
		}
		for b := 0; b < n; b++ {
			wall := time.Since(start).Seconds()
			if blocks > 0 && wall+wall/float64(blocks)/2 >= budget {
				return nil
			}
			each(inst.runBlock(b, scale))
			blocks++
		}
	}
}

// update records one full pass at the default seed as the golden outputs.
func update(c config, def workloadDef, inst instance, w io.Writer) error {
	n, err := inst.newPass()
	if err != nil {
		return err
	}
	var samples []sample
	for b := 0; b < n; b++ {
		s, _ := inst.runBlock(b, nil)
		samples = append(samples, s...)
	}
	for _, s := range samples {
		if why := def.check(s, nil); why != "" {
			return fmt.Errorf("%s: refusing to record a failing cell: %s", def.name, why)
		}
	}
	dir := c.golden
	if dir == "" {
		dir = sourceTestdata()
	}
	if err := writeGolden(dir, def.name, samples); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: recorded %d golden rows in %s\n", def.name, len(samples), dir)
	return nil
}

// tally folds the measured blocks of a run without keeping their cells, so
// the run's memory does not grow with its length. It sums host times both
// as measured and scaled to the reference host.
type tally struct {
	cells       int
	simCycles   float64
	raw, scaled times
	firstNs     map[int]float64 // host ns of each cell's first measurement
}

// times sums cell host time and the time spent in campaign or sweep calls.
type times struct{ hostNs, elapsed float64 }

// add folds one block, run in d. The block's call time is scaled by its
// cells' scales, each weighted by the cell's host time.
func (t *tally) add(s []sample, d time.Duration) {
	var raw, scaled float64
	for _, sm := range s {
		t.cells++
		t.simCycles += sm.simCycles
		raw += sm.hostNs
		scaled += sm.hostNs * sm.scale
		if _, ok := t.firstNs[sm.index]; !ok {
			t.firstNs[sm.index] = sm.hostNs
		}
	}
	w := 1.0
	if raw > 0 {
		w = scaled / raw
	}
	t.raw.hostNs += raw
	t.raw.elapsed += d.Seconds()
	t.scaled.hostNs += scaled
	t.scaled.elapsed += d.Seconds() * w
}

func (t *tally) values(tm times, setups []float64) map[string]float64 {
	return map[string]float64{
		"setup_s":               median(setups),
		"cells_per_s":           ratio(float64(t.cells), tm.elapsed),
		"host_ns_per_sim_cycle": ratio(tm.hostNs, t.simCycles),
		"peak_rss_mb":           peakRSSMB(),
	}
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kb /= 1024 // bytes there
	}
	return kb / 1024
}

// traced runs the traced phase over the cells of a fresh pass, then the
// layer microbenchmarks and the profile fold, writes the trace and layer
// files, and returns the per-layer metric values.
//
// untraced holds the host ns of each cell's first untraced measurement.
func traced(c config, def workloadDef, inst instance, untraced map[int]float64, budget float64,
	golden map[string]row, rf *resultFile, runDir string) (map[string]float64, error) {
	memoRatio := inst.memoRatio()
	if _, err := inst.newPass(); err != nil {
		return nil, err
	}
	// cellRecord is one traced cell's set-up/run split in layers.json.
	type cellRecord struct {
		Cell        string  `json:"cell"`
		CellMs      float64 `json:"cell_ms"`
		BuildMs     float64 `json:"build_ms"` // the cell's machine builds
		PredictedMs float64 `json:"predicted_ms"`
	}
	var cells []cellRecord
	t := newTracer()
	var tcs []tracedCell
	var tracedNs, untracedNs, cellNs float64
	start := time.Now()
	for k, i := range inst.traceOrder() {
		wall := time.Since(start).Seconds()
		if k > 0 && wall+wall/float64(k)/2 >= budget {
			break
		}
		s, tc := inst.traceCell(i, t)
		rf.record(def, s, golden)
		if s.err != "" {
			continue
		}
		tcs = append(tcs, tc)
		cells = append(cells, cellRecord{Cell: s.row.key()})
		cellNs += tc.cellNs
		if u, ok := untraced[i]; ok {
			tracedNs += tc.cellNs
			untracedNs += u
		}
	}
	scale := 1
	if c.toy {
		scale = 100
	}
	lc, err := measureLayers(scale, inst.payload(), c.scratch)
	if err != nil {
		return nil, fmt.Errorf("layer microbenchmarks: %w", err)
	}
	vals, model := layerReport(tcs, lc)
	for i, tc := range tcs {
		cells[i].CellMs, cells[i].BuildMs = tc.cellNs/1e6, tc.builds*tc.buildNs/1e6
		for _, ns := range lc.predict(tc) {
			cells[i].PredictedMs += ns / 1e6
		}
	}
	for name, v := range map[string]float64{
		"secmem.protect_ns_per_line":      lc.Seal + lc.Load,
		"secmem.protect_tree_ns_per_line": lc.SealTree + lc.LoadTree,
		"aes.block_ns":                    lc.AESBlock,
		"ctr.line_ns":                     lc.CTRLine,
		"hmac.line_ns":                    lc.HMACLine,
		"mactree.verify_ns":               lc.TreeVerify,
		"mactree.set_leaf_ns":             lc.TreeSetLeaf,
		"pacmac.sign_ns":                  lc.PACSign,
		"pipeline.cycle_ns":               lc.PipeCycle,
		"cache.l1_access_ns":              lc.L1Access,
		"cache.l2_access_ns":              lc.L2Access,
		"dram.access_ns":                  lc.DRAMAccess,
		"bus.txn_ns":                      lc.BusTxn,
		"campaign.get_us":                 lc.Get / 1e3,
		"campaign.put_us":                 lc.Put / 1e3,
		"diffcheck.oracle_memo_hit_ratio": memoRatio,
		"trace_overhead_pct":              100 * (1 - ratio(untracedNs, tracedNs)),
		"host.calib_ns":                   rf.Host.CalibNs,
	} {
		vals[name] = v
	}
	pct, err := foldProfile(filepath.Join(runDir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	for b, v := range pct {
		vals["prof."+b+"_pct"] = v
	}
	if err := t.writeChrome(filepath.Join(runDir, "trace.json")); err != nil {
		return nil, err
	}
	err = writeJSON(filepath.Join(runDir, "layers.json"), map[string]any{
		"workload":       def.name,
		"traced_cells":   len(tcs),
		"measured_ms":    cellNs / 1e6,
		"model_ms":       model,
		"layer_costs_ns": lc,
		"spans":          t.stats(),
		"cells":          cells,
	})
	return vals, err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
