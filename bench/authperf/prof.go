package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path"
	"strconv"
	"strings"
)

// foldProfile reads a CPU profile with the toolchain's own pprof and folds
// the flat share of every function into its Go package's bucket (see
// profBuckets). The result maps bucket to percent of all samples.
func foldProfile(file string) (map[string]float64, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", file)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(errb.String()))
	}
	return foldTop(out.String())
}

// foldTop parses `pprof -top` text: a header ending in the column line
// "flat flat% sum% cum cum%", then one row per function.
func foldTop(text string) (map[string]float64, error) {
	pct := map[string]float64{}
	rows := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		pct[bucket(f[5])] += v
	}
	if !rows {
		return nil, fmt.Errorf("pprof output has no column header")
	}
	return pct, nil
}

// bucket maps a profiled function name, e.g.
// "authpoint/internal/pipeline.(*Core).Step", to its package's bucket.
func bucket(fn string) string {
	dir, rest := path.Split(fn)
	pkg := dir + rest
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		pkg = dir + rest[:i]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	last := path.Base(pkg)
	for _, b := range profBuckets {
		if b == last && b != "runtime" {
			return b
		}
	}
	return "other"
}
