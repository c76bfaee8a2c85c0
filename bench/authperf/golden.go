package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// goldenFS holds the golden outputs at the default seed, one file per
// workload, regenerated with -update.
//
//go:embed testdata/golden-*.json
var goldenFS embed.FS

type goldenFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Rows     []row  `json:"rows"`
}

func goldenName(workload string) string { return "golden-" + workload + ".json" }

// sourceTestdata is the testdata directory beside this source file, where
// -update writes by default.
func sourceTestdata() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "testdata")
}

// loadGolden returns the workload's golden rows by key, read from dir, or
// from the embedded files when dir is empty.
func loadGolden(dir, workload string) (map[string]row, error) {
	var data []byte
	var err error
	if dir == "" {
		data, err = goldenFS.ReadFile("testdata/" + goldenName(workload))
	} else {
		data, err = os.ReadFile(filepath.Join(dir, goldenName(workload)))
	}
	if err != nil {
		return nil, fmt.Errorf("golden outputs of %s: %w (regenerate with -update)", workload, err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden outputs of %s: %w", workload, err)
	}
	rows := make(map[string]row, len(g.Rows))
	for _, r := range g.Rows {
		rows[r.key()] = r
	}
	return rows, nil
}

// writeGolden writes the rows of one full pass, in cell order, one per line.
func writeGolden(dir, workload string, samples []sample) error {
	sort.Slice(samples, func(i, j int) bool { return samples[i].index < samples[j].index })
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"workload\": %q, \"seed\": %d, \"rows\": [\n", workload, defaultSeed)
	for i, s := range samples {
		line, err := json.Marshal(s.row)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(samples)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenName(workload)), b.Bytes(), 0o644)
}

// check returns why sample s is wrong, or "". Rows are checked against the
// golden rows where they apply and against the workload's invariants
// elsewhere.
func (d workloadDef) check(s sample, golden map[string]row) string {
	if s.err != "" {
		return s.err
	}
	if golden != nil {
		g, ok := golden[s.row.key()]
		if !ok {
			return fmt.Sprintf("%+v: no golden row", s.row)
		}
		if g != s.row {
			return fmt.Sprintf("%+v, golden %+v", s.row, g)
		}
		return ""
	}
	if d.invariant != nil {
		if why := d.invariant(s.row); why != "" {
			return fmt.Sprintf("%+v: %s", s.row, why)
		}
	}
	return ""
}
