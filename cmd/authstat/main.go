// Command authstat mines campaign telemetry: the JSONL run ledgers streamed
// by authbench/authfuzz/authverify (-telemetry). It answers the questions the
// raw ledger buries: where did the host time go, and which cells are slowest.
//
// Usage:
//
//	authstat summary [-top N] <ledger.jsonl>     # per-policy host-cost breakdown
//	authstat validate <ledger.jsonl>             # schema + invariant check (CI)
//
// The exit status is 0 when clean, 1 on validation failure, and 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"authpoint/internal/telemetry"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "authstat: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: authstat <summary|validate> ...")
	}
	switch os.Args[1] {
	case "summary":
		cmdSummary(os.Args[2:])
	case "validate":
		cmdValidate(os.Args[2:])
	default:
		fatalf("unknown command %q (want summary or validate)", os.Args[1])
	}
}

// ---------------------------------------------------------------- summary --

// hostBuckets are the per-cell host-cost histogram bounds (upper edges).
var hostBuckets = []time.Duration{
	time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond,
	30 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond,
	time.Second, 3 * time.Second, 10 * time.Second,
}

// polStats aggregates one (kind, policy) group of ledger records.
type polStats struct {
	kind, policy string
	cells        int
	cached       int
	skipped      int
	errs         int
	simCycles    uint64
	hostNs       int64
	hist         []int // len(hostBuckets)+1, last bucket = overflow
}

// siteStats aggregates tampering cells by tamper site: which verdicts each
// site produced and what it cost to check.
type siteStats struct {
	site      string
	cells     int
	verdicts  map[string]int
	simCycles uint64
	hostNs    int64
}

func bucketOf(ns int64) int {
	for i, b := range hostBuckets {
		if time.Duration(ns) <= b {
			return i
		}
	}
	return len(hostBuckets)
}

func cmdSummary(args []string) {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	topN := fs.Uint("top", 10, "how many slowest cells to list")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: authstat summary [-top N] <ledger.jsonl>")
	}
	lf, err := telemetry.ReadFile(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	lf.SortBySeq()

	groups := map[[2]string]*polStats{}
	var totalNs int64
	var totalCycles uint64
	var totalCached, totalSkipped, totalRun int
	for _, r := range lf.Records {
		key := [2]string{r.Kind, r.Policy}
		g := groups[key]
		if g == nil {
			g = &polStats{kind: r.Kind, policy: r.Policy, hist: make([]int, len(hostBuckets)+1)}
			groups[key] = g
		}
		g.cells++
		// Skipped cells did no work (budget expired before they ran): they
		// count toward the group's cell total but stay out of the cost
		// histograms and error counts.
		if r.Verdict == telemetry.VerdictSkipped {
			g.skipped++
			totalSkipped++
			continue
		}
		totalRun++
		if r.Cached {
			g.cached++
			totalCached++
		}
		if r.Err != "" {
			g.errs++
		}
		if !r.Cached {
			g.simCycles += r.SimCycles
			g.hostNs += r.HostNs
			g.hist[bucketOf(r.HostNs)]++
			totalNs += r.HostNs
			totalCycles += r.SimCycles
		}
	}
	keys := make([][2]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	fmt.Printf("ledger: campaign %q on %s/%s (%d cpu, %s), %d records\n",
		lf.Header.Campaign, lf.Header.GOOS, lf.Header.GOARCH,
		lf.Header.NumCPU, lf.Header.GoVersion, len(lf.Records))
	fmt.Printf("\n%-8s %-38s %6s %6s %6s %5s %14s %10s %9s\n",
		"kind", "policy", "cells", "cached", "skip", "errs", "sim-cycles", "host", "ns/cycle")
	for _, k := range keys {
		g := groups[k]
		nsPerCycle := 0.0
		if g.simCycles > 0 {
			nsPerCycle = float64(g.hostNs) / float64(g.simCycles)
		}
		fmt.Printf("%-8s %-38s %6d %6d %6d %5d %14d %10v %9.1f\n",
			g.kind, g.policy, g.cells, g.cached, g.skipped, g.errs, g.simCycles,
			time.Duration(g.hostNs).Round(time.Millisecond), nsPerCycle)
		fmt.Printf("%-8s   host-cost histogram:", "")
		for i, n := range g.hist {
			if n == 0 {
				continue
			}
			if i < len(hostBuckets) {
				fmt.Printf(" <=%v:%d", hostBuckets[i], n)
			} else {
				fmt.Printf(" >%v:%d", hostBuckets[len(hostBuckets)-1], n)
			}
		}
		fmt.Println()
	}
	// Per-tamper-site breakdown: tampering campaigns record the site on each
	// cell, so verdicts and host cost can be attributed per site (entry,
	// data, mac, ctr, tree).
	sites := map[string]*siteStats{}
	for _, r := range lf.Records {
		if r.Site == "" || r.Verdict == telemetry.VerdictSkipped {
			continue
		}
		s := sites[r.Site]
		if s == nil {
			s = &siteStats{site: r.Site, verdicts: make(map[string]int)}
			sites[r.Site] = s
		}
		s.cells++
		if r.Verdict != "" {
			s.verdicts[r.Verdict]++
		}
		if !r.Cached {
			s.simCycles += r.SimCycles
			s.hostNs += r.HostNs
		}
	}
	if len(sites) > 0 {
		siteKeys := make([]string, 0, len(sites))
		for k := range sites {
			siteKeys = append(siteKeys, k)
		}
		sort.Strings(siteKeys)
		fmt.Printf("\n%-8s %6s %14s %10s  %s\n", "site", "cells", "sim-cycles", "host", "verdicts")
		for _, k := range siteKeys {
			s := sites[k]
			vs := make([]string, 0, len(s.verdicts))
			for v := range s.verdicts {
				vs = append(vs, v)
			}
			sort.Strings(vs)
			fmt.Printf("%-8s %6d %14d %10v ", s.site, s.cells, s.simCycles,
				time.Duration(s.hostNs).Round(time.Millisecond))
			for _, v := range vs {
				fmt.Printf(" %s=%d", v, s.verdicts[v])
			}
			fmt.Println()
		}
	}

	nsPerCycle := 0.0
	if totalCycles > 0 {
		nsPerCycle = float64(totalNs) / float64(totalCycles)
	}
	fmt.Printf("\ntotal (fresh cells): %d sim-cycles in %v host (%.1f ns/cycle)\n",
		totalCycles, time.Duration(totalNs).Round(time.Millisecond), nsPerCycle)
	if totalRun > 0 {
		fmt.Printf("cache: %d/%d run cells served from cache (%.1f%% hit rate), %d skipped by budget\n",
			totalCached, totalRun, 100*float64(totalCached)/float64(totalRun), totalSkipped)
	}

	slow := make([]telemetry.Record, 0, len(lf.Records))
	for _, r := range lf.Records {
		if !r.Cached && r.Verdict != telemetry.VerdictSkipped {
			slow = append(slow, r)
		}
	}
	sort.SliceStable(slow, func(i, j int) bool { return slow[i].HostNs > slow[j].HostNs })
	if uint(len(slow)) > *topN {
		slow = slow[:*topN]
	}
	fmt.Printf("\nslowest %d cells:\n", len(slow))
	for _, r := range slow {
		id := r.Workload
		if id == "" {
			id = fmt.Sprintf("seed %d", r.Seed)
		}
		fmt.Printf("  %10v  %-8s %-20s %-38s %12d cycles\n",
			time.Duration(r.HostNs).Round(time.Millisecond), r.Kind, id, r.Policy, r.SimCycles)
	}
}

// --------------------------------------------------------------- validate --

func cmdValidate(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: authstat validate <ledger.jsonl>")
	}
	lf, err := telemetry.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "authstat: %v\n", err)
		os.Exit(1)
	}
	if err := lf.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "authstat: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s: valid %s ledger, campaign %q, %d records\n",
		fs.Arg(0), lf.Header.Schema, lf.Header.Campaign, len(lf.Records))
}
