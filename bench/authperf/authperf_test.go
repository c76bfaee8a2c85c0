package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSON pins BENCHMARK.json at the repository root to the
// metric and workload tables, and checks the limits its readers rely on.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string            `json:"command"`
		Paths      []string            `json:"paths"`
		RunSeconds int                 `json:"run_seconds"`
		Workloads  []map[string]string `json:"workloads"`
		EndToEnd   []metric            `json:"end_to_end"`
		PerLayer   []metric            `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := b.Workloads[i]
		if len(got) != 2 || got["name"] != w.name || got["why"] != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %v, want name %q why %q", i, got, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json has %+v, want %+v", kind, i, g, d)
			}
			if bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v, want %v in (0, 0.25]", d.Name, *g.Bound, d.Bound)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: bad name, unit or direction", d.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower better")
	}
	for _, d := range endToEnd {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// TestSmokeEveryWorkload runs every workload at toy size: it records golden
// outputs, then an untraced and a traced run against them, and checks the
// reported metrics, the result file and the trace artifacts.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			c := config{workload: w.name, seed: defaultSeed, toy: true, out: dir, golden: dir}
			up := c
			up.update = true
			if _, err := run(up, &bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
			for _, trace := range []bool{false, true} {
				c.trace = trace
				var out bytes.Buffer
				rf, err := run(c, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !rf.Correct || rf.Failed != 0 || rf.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d %v", trace, rf.Correct, rf.Attempted, rf.Failed, rf.Failures)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				checkOutput(t, w.name, out.String(), defs, !trace)
				runs, _ := filepath.Glob(filepath.Join(dir, "runs", "*", "result.json"))
				if len(runs) == 0 {
					t.Fatal("no result file written")
				}
			}
			for _, f := range []string{"trace.json", "layers.json", "cpu.pprof"} {
				if m, _ := filepath.Glob(filepath.Join(dir, "runs", "*trace1*", f)); len(m) != 1 {
					t.Errorf("traced run wrote %d %s", len(m), f)
				}
			}
		})
	}
}

// checkOutput checks a run's stdout: one "workload metric value unit" line
// per metric, then a JSON line with exactly the summary keys.
func checkOutput(t *testing.T, workload, out string, defs []metricDef, nonzero bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(defs)+1 {
		t.Fatalf("%d output lines, want %d", len(lines), len(defs)+1)
	}
	for i, d := range defs {
		f := strings.Fields(lines[i])
		if len(f) < 4 || f[0] != workload || f[1] != d.Name || f[3] != d.Unit {
			t.Errorf("line %q, want %s %s <value> %s", lines[i], workload, d.Name, d.Unit)
		}
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("summary has %d keys, want correct, attempted, failed and metrics", len(raw))
	}
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Metrics) != len(defs) {
		t.Errorf("%d metrics in the summary, want %d", len(s.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := s.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || (nonzero && m.Value <= 0) {
			t.Errorf("%s = %+v", d.Name, m)
		}
	}
}

// TestGoldenMismatchFails checks that a cell differing from its golden row
// fails the run, and that other seeds fall back to the invariants.
func TestGoldenMismatchFails(t *testing.T) {
	dir := t.TempDir()
	c := config{workload: "fuzz-tamper", seed: defaultSeed, toy: true, out: dir, golden: dir, update: true}
	if _, err := run(c, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, goldenName("fuzz-tamper"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doctored := regexp.MustCompile(`"cycles":(\d)`).ReplaceAll(data, []byte(`"cycles":9$1`))
	if err := os.WriteFile(path, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	c.update = false
	rf, err := run(c, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if rf.Correct || rf.Failed == 0 {
		t.Fatalf("doctored golden rows passed: %+v", rf.summary)
	}
	c.seed = 1001
	if rf, err = run(c, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !rf.Correct {
		t.Fatalf("seed 1001: %v", rf.Failures)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9.0, 2.0}, [3]float64{1.4375, 2.75, 7.625}},
	} {
		q1, q2, q3, ok := quartiles(tc.in)
		if !ok || [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
}

// TestTallyScales checks that a block's call time is scaled by its cells'
// scales weighted by their host time, and that the unscaled sums stay as
// measured.
func TestTallyScales(t *testing.T) {
	tl := tally{firstNs: map[int]float64{}}
	tl.add([]sample{
		{index: 0, hostNs: 3e9, simCycles: 1e6, scale: 0.5},
		{index: 1, hostNs: 1e9, simCycles: 1e6, scale: 1},
	}, 5*time.Second)
	for _, tc := range []struct {
		tm                times
		cellsPerS, nsPerC float64
	}{
		{tl.scaled, 2 / 3.125, 1250},
		{tl.raw, 0.4, 2000},
	} {
		v := tl.values(tc.tm, []float64{0.3, 0.1, 0.2})
		if math.Abs(v["cells_per_s"]-tc.cellsPerS) > 1e-12 || v["host_ns_per_sim_cycle"] != tc.nsPerC || v["setup_s"] != 0.2 {
			t.Errorf("values(%+v) = %v, want cells_per_s %v host_ns_per_sim_cycle %v setup_s 0.2", tc.tm, v, tc.cellsPerS, tc.nsPerC)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{"host_ns_per_sim_cycle", "ns/cycle", "lower", 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * k
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		head []float64
		want string
	}{
		{scale(1.01), "same"},
		{scale(1.2), "regression"},
		{scale(0.8), "gain"},
		{wide, "unresolved"},
		{base[:4], "same"},
	} {
		if got, _ := judge(lower, base, tc.head); got != tc.want {
			t.Errorf("judge(%v) = %s, want %s", tc.head, got, tc.want)
		}
	}
}

func TestFoldTop(t *testing.T) {
	text := `File: authperf
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     0.40s 40.00% 40.00%      0.50s 50.00%  authpoint/internal/pipeline.(*Core).Step
     0.20s 20.00% 60.00%      0.20s 20.00%  authpoint/internal/cryptoengine/sha256.block
     0.20s 20.00% 80.00%      0.20s 20.00%  runtime.mallocgc
     0.10s 10.00% 90.00%      0.10s 10.00%  internal/runtime/maps.(*Map).getWithKeySmall (inline)
     0.10s 10.00%   100%      0.10s 10.00%  encoding/json.(*decodeState).object
`
	got, err := foldTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"pipeline": 40, "sha256": 20, "runtime": 30, "other": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("foldTop = %v, want %v", got, want)
	}
}
