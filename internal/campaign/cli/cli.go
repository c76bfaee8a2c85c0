// Package cli is the command-line wiring the campaign checkers share
// (authfuzz, authverify): one flag set, and a session that opens what a
// campaign run needs — seeds, policies, budget or stop, result cache, resume
// checkpoint, ledger, meter and CPU profile — sweeps cells through the
// campaign engine, prints the verdict and cache summary, and exits with the
// campaign's status: 0 clean, 1 findings, 2 bad input or a campaign that
// could not record its results. Its observability half (Observe) is shared
// with authbench.
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"authpoint/internal/campaign"
	"authpoint/internal/policy"
	"authpoint/internal/report"
	"authpoint/internal/telemetry"
)

// Session is one run of a campaign command.
type Session struct {
	Name string // command name, the prefix of every line it prints

	// The shared flags the commands read themselves.
	Mode     string
	Minimize bool
	Out      string
	Verbose  bool
	Replay   bool

	// The worker count, profiles, ledger, meter and metrics; Start opens
	// them.
	Observe

	// Set by Start.
	Seeds []int64
	Pols  []policy.ControlPoint
	Store *campaign.Store // nil without -cache

	seeds, policies, replayFlag string
	cache, resume               string
	stopAfter                   int
	budget                      time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	done   map[campaign.CellID]string
	// failed records that a result-store write or the sweep itself failed.
	failed bool
}

// New registers the shared campaign flags on the command line for command
// name: policies is the -policies default, replay the name of the flag that
// replays finding files, and ext those files' extension.
func New(name, policies, replay, ext string) *Session {
	s := &Session{Name: name, replayFlag: replay}
	flag.StringVar(&s.seeds, "seeds", "1:100", "inclusive seed range lo:hi")
	flag.StringVar(&s.policies, "policies", policies, "policy set: full (95-point lattice), lattice, ci (CI smoke set), pac, or comma-separated names (e.g. baseline,authen-then-commit+fetch)")
	flag.StringVar(&s.Mode, "mode", "pair", "pair (seed i under policies[i mod n]) or cross (every seed under every policy)")
	flag.BoolVar(&s.Minimize, "minimize", true, "shrink findings to minimal programs before recording")
	flag.StringVar(&s.Out, "out", "", "directory to write "+ext+" files for findings (none if empty)")
	flag.BoolVar(&s.Replay, replay, false, "replay "+ext+" files given as arguments instead of sweeping")
	s.register(0, "print the merged campaign metrics (and write metrics.json under -out)")
	flag.DurationVar(&s.budget, "budget", 0, "wall-clock bound for the seed sweep (0 = none); cells not reached are skipped, not failed")
	flag.IntVar(&s.stopAfter, "stop-after", 0, "run only the first N cells still to run, then skip the rest as an expired -budget does, at any -parallel (0 = all)")
	flag.BoolVar(&s.Verbose, "v", false, "print one line per cell")
	flag.StringVar(&s.cache, "cache", "", "content-addressed result cache directory: checks hit the cache instead of simulating when the (program, policy, options) cell was already checked")
	flag.StringVar(&s.resume, "resume", "", "resume from a prior run's telemetry ledger: cells it records as done are not re-run (prior findings are regenerated through the cache)")
	return s
}

// Fatalf reports a usage or set-up error and exits 2.
func (s *Session) Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, s.Name+": "+format+"\n", args...)
	os.Exit(2)
}

// Start validates the parsed flags and opens the campaign: the budget
// context, the cache, the resume checkpoint, the CPU profile, and the
// ledger and meter. Bad input exits 2.
func (s *Session) Start() {
	if flag.NArg() > 0 {
		s.Fatalf("unexpected arguments %q (use -%s to replay files)", flag.Args(), s.replayFlag)
	}
	var err error
	if s.Seeds, err = campaign.ParseSeedRange(s.seeds); err != nil {
		s.Fatalf("%v", err)
	}
	if s.Pols, err = policy.ParseSet(s.policies); err != nil {
		s.Fatalf("%v", err)
	}
	if s.Mode != "pair" && s.Mode != "cross" {
		s.Fatalf("mode %q: want pair or cross", s.Mode)
	}
	if s.stopAfter < 0 {
		s.Fatalf("stop-after %d: want a cell count, or 0 for all", s.stopAfter)
	}
	s.ctx, s.cancel = context.Background(), func() {}
	if s.budget > 0 {
		s.ctx, s.cancel = context.WithTimeout(s.ctx, s.budget)
	}
	if s.cache != "" {
		if s.Store, err = campaign.Open(s.cache); err != nil {
			s.Fatalf("%v", err)
		}
	}
	if s.resume != "" {
		if sameFile(s.resume, s.telemetry) {
			s.Fatalf("-resume and -telemetry name the same file %s: the new ledger would overwrite its own checkpoint", s.resume)
		}
		if s.done, err = campaign.LoadCompleted(s.resume); err != nil {
			s.Fatalf("resume: %v", err)
		}
	}
	if err := s.Open(s.Name, s.Name); err != nil {
		s.Fatalf("%v", err)
	}
}

// sameFile reports whether paths a and b name one existing file.
func sameFile(a, b string) bool {
	fa, err := os.Stat(a)
	if err != nil {
		return false
	}
	fb, err := os.Stat(b)
	return err == nil && os.SameFile(fa, fb)
}

// Sweep runs a campaign's cells through the campaign engine under the
// session's budget or stop, resume checkpoint, ledger and meter, then prints
// the resume line, one line per cell under -v (line), the header (detail is
// appended to its mode), the verdict counts in the order verdicts lists
// them, and the cache summary. It returns the findings in report order. A
// failed result-store write, or a sweep that failed for any reason but the
// budget running out, is printed to stderr and makes Exit exit 2.
func Sweep[C, R any, V ~string](s *Session, ch campaign.Checker[C, R], cells []C, detail string, verdicts []V, line func(telemetry.Record) string) []R {
	start := time.Now()
	rep, err := campaign.Sweep(s.ctx, ch, cells, s.done, s.stopAfter, s.Parallel, s.Obs)
	elapsed := time.Since(start).Round(time.Millisecond)

	if s.done != nil {
		fmt.Printf("%s: resume: %d/%d cells already done (%d prior findings)\n", s.Name, rep.Done, len(cells), rep.Redo)
	}
	counts := map[string]int{}
	skipped, cached := 0, 0
	for _, r := range rep.Records {
		if r.Verdict == telemetry.VerdictSkipped {
			skipped++
			continue
		}
		counts[r.Verdict]++
		if r.Cached {
			cached++
		}
		if s.Verbose {
			fmt.Println(line(r))
		}
	}
	fmt.Printf("%s: %d cells (%d seeds x %d policies, mode %s%s) in %v\n",
		s.Name, len(cells), len(s.Seeds), len(s.Pols), s.Mode, detail, elapsed)
	fmt.Printf("%s: verdicts:", s.Name)
	for _, v := range verdicts {
		if n := counts[string(v)]; n > 0 {
			fmt.Printf(" %s=%d", v, n)
		}
	}
	if cached > 0 {
		fmt.Printf(" cached=%d", cached)
	}
	if skipped > 0 {
		fmt.Printf(" skipped=%d (%s)", skipped, skipCause(err, skipped, len(cells)-rep.Done, s.stopAfter))
	}
	fmt.Println()
	if s.Store != nil {
		fmt.Printf("%s: cache: %d hits, %d misses, %d stored (%s)\n",
			s.Name, s.Store.Hits(), s.Store.Misses(), s.Store.Puts(), s.Store.Dir())
		if cerr := s.Store.Err(); cerr != nil {
			fmt.Fprintf(os.Stderr, "%s: cache: %v\n", s.Name, cerr)
			s.failed = true
		}
	}
	if err != nil && err != context.DeadlineExceeded {
		fmt.Fprintf(os.Stderr, "%s: sweep: %v\n", s.Name, err)
		s.failed = true
	}
	return rep.Findings
}

// skipCause names why a sweep of pending cells skipped some: the stop
// after stopAfter of them skips the rest, and any further skip is the
// budget's, or else a failed check's. err is the sweep's error.
func skipCause(err error, skipped, pending, stopAfter int) string {
	switch {
	case stopAfter > 0 && skipped <= pending-stopAfter:
		return "stop-after"
	case errors.Is(err, context.DeadlineExceeded):
		return "budget"
	}
	return "error"
}

// WriteOut writes one artifact, name, under -out with write and reports the
// path. Errors exit 2.
func (s *Session) WriteOut(name string, write func(path string) error) {
	if err := os.MkdirAll(s.Out, 0o755); err != nil {
		s.Fatalf("%v", err)
	}
	path := filepath.Join(s.Out, name)
	if err := write(path); err != nil {
		s.Fatalf("%v", err)
	}
	fmt.Printf("%s: wrote %s\n", s.Name, path)
}

// Close ends the campaign's observability: the meter's final line, the
// ledger flush, and the merged metrics, printed and, under -out, recorded as
// metrics.json next to the findings.
func (s *Session) Close() {
	if err := s.Observe.Close(); err != nil {
		s.Fatalf("telemetry: %v", err)
	}
	if s.Obs == nil {
		return
	}
	if snap := s.Obs.Metrics(); snap != nil {
		fmt.Println()
		report.WriteMetrics(os.Stdout, snap)
		if s.Out != "" {
			s.WriteOut("metrics.json", func(path string) error {
				data, err := json.MarshalIndent(snap, "", "  ")
				if err != nil {
					return err
				}
				return os.WriteFile(path, append(data, '\n'), 0o644)
			})
		}
	}
}

// Exit flushes the profiles and exits with the campaign's status (see
// status). The command exits through os.Exit, so the profiles are flushed
// here rather than in deferred calls.
func (s *Session) Exit(bad bool) {
	s.cancel()
	if err := s.Stop(); err != nil {
		s.Fatalf("%v", err)
	}
	os.Exit(s.status(bad))
}

// status is the campaign's exit status: 2 when a result-store write or the
// sweep failed, as when the store does not open at Start — the campaign did
// not record what it checked — else 1 when it found anything (bad), else 0.
func (s *Session) status(bad bool) int {
	switch {
	case s.failed:
		return 2
	case bad:
		return 1
	}
	return 0
}

// ReplayFiles replays each finding file named on the command line with
// replay, which returns a description of the replayed result and a non-nil
// error when the replay is not byte-identical to the recording. It returns
// the exit status: 1 when any replay mismatched.
func (s *Session) ReplayFiles(replay func(path string) (string, error)) int {
	if flag.NArg() == 0 {
		s.Fatalf("-%s needs at least one file", s.replayFlag)
	}
	code := 0
	for _, path := range flag.Args() {
		desc, err := replay(path)
		switch {
		case err != nil:
			code = 1
			fmt.Printf("%s: REPLAY MISMATCH %s: %v\n", s.Name, path, err)
		case s.Verbose:
			fmt.Printf("%s: %s replayed byte-identically\n", path, desc)
		default:
			fmt.Printf("%s: ok\n", path)
		}
	}
	return code
}
