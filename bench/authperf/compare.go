package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain compares the untraced results under two directories, one
// per commit, by the rule of the choosing-metrics guide (section 8): a
// metric improved only if the head wins at least nine of every ten
// alternating pairs (ten pairs at least) and the medians differ by more than
// the base's quartile spread; it regressed if the head median is worse than
// the base median by more than the metric's bound; it is unresolved where
// either side's spread exceeds the bound, unless every head run beats every
// base run. It prints one row per workload and exits 1 on any regression.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: authperf compare <base-dir> <head-dir>")
		return 2
	}
	base, err := loadResults(args[0])
	if err == nil {
		var head map[string][]resultFile
		if head, err = loadResults(args[1]); err == nil {
			return compareResults(base, head, stdout)
		}
	}
	fmt.Fprintln(stderr, "authperf compare:", err)
	return 2
}

// loadResults reads every untraced result file under dir, by workload, in
// the order the runs started.
func loadResults(dir string) (map[string][]resultFile, error) {
	out := map[string][]resultFile{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "result.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rf.Schema != resultSchema {
			return fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
		}
		if !rf.Trace {
			out[rf.Workload] = append(out[rf.Workload], rf)
		}
		return nil
	})
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].StartUnixNs < rs[j].StartUnixNs })
	}
	return out, err
}

func compareResults(base, head map[string][]resultFile, w io.Writer) int {
	status := 0
	for _, wl := range workloads {
		b, h := base[wl.name], head[wl.name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		cols := []string{fmt.Sprintf("%-12s pairs=%d", wl.name, min(len(b), len(h)))}
		for _, d := range endToEnd {
			verdict, delta := judge(d, values(b, d.Name), values(h, d.Name))
			if verdict == "regression" {
				status = 1
			}
			cols = append(cols, fmt.Sprintf("%s=%s(%+.1f%%)", d.Name, verdict, 100*delta))
		}
		fmt.Fprintln(w, strings.Join(cols, " "))
	}
	return status
}

func values(rs []resultFile, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// judge classifies the head runs h of one metric against the base runs b
// (paired by position) and returns the relative change of the median,
// signed so that positive is better.
func judge(d metricDef, b, h []float64) (string, float64) {
	bq1, bm, bq3, okb := quartiles(b)
	hq1, hm, hq3, okh := quartiles(h)
	if !okb || !okh || bm == 0 || hm == 0 {
		return "unresolved", 0
	}
	sign := 1.0
	if d.Better == "lower" {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*(x-y) > 0 }
	delta := sign * (hm - bm) / bm
	pairs, wins := min(len(b), len(h)), 0
	for i := 0; i < pairs; i++ {
		if better(h[i], b[i]) {
			wins++
		}
	}
	allBetter := true
	for _, x := range h {
		for _, y := range b {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := max((bq3-bq1)/bm, (hq3-hq1)/hm)
	switch {
	case pairs >= 10 && wins*10 >= 9*pairs && delta > 0 && math.Abs(hm-bm) > bq3-bq1:
		return "gain", delta
	case spread > d.Bound && !allBetter:
		return "unresolved", delta
	case -delta > d.Bound:
		return "regression", delta
	}
	return "same", delta
}
