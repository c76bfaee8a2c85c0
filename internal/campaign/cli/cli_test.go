package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/telemetry"
)

// TestSameFile pins the -resume/-telemetry guard: two spellings of one
// checkpoint file are the same file, so the new ledger would overwrite it.
func TestSameFile(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "r.jsonl")
	other := filepath.Join(dir, "r2.jsonl")
	for _, p := range []string{ckpt, other} {
		if err := os.WriteFile(p, []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	link := filepath.Join(dir, "link.jsonl")
	if err := os.Link(ckpt, link); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a, b string
		want bool
	}{
		{ckpt, ckpt, true},
		{ckpt, filepath.Join(dir, ".", "..", filepath.Base(dir), "r.jsonl"), true},
		{ckpt, link, true},
		{ckpt, other, false},
		{ckpt, filepath.Join(dir, "new.jsonl"), false}, // a fresh ledger
		{ckpt, "", false},                              // no -telemetry
	} {
		if got := sameFile(tc.a, tc.b); got != tc.want {
			t.Errorf("sameFile(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// A campaign exits 2 when it could not record its results: when every
// result-store write failed, or when the sweep failed for another reason
// than its budget. Otherwise it exits 1 with findings and 0 without.
func TestStatusFailsOnLostResults(t *testing.T) {
	// A plain file in place of the store's directory fails every Put, even
	// as root, where a permission bit would stop nothing.
	dir := filepath.Join(t.TempDir(), "cache")
	broken, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	working, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checker := func(store *campaign.Store, fail bool) campaign.Checker[int64, string] {
		return campaign.Checker[int64, string]{
			Cell: func(seed int64) telemetry.Record { return telemetry.Record{Kind: "test", Seed: seed} },
			Check: func(_ int, seed int64, rec *telemetry.Record) (string, error) {
				if fail {
					return "", errors.New("checker broke")
				}
				// As the checkers do, the cell leaves a failed write to the
				// store's sticky error.
				rec.Verdict = "ok"
				_ = store.Put(campaign.Key{Check: "test/v1", Kind: "test", ProgDigest: fmt.Sprint(seed)}, "ok")
				return "ok", nil
			},
		}
	}
	for _, tc := range []struct {
		name      string
		store     *campaign.Store
		fail, bad bool
		want      int
	}{
		{"clean", working, false, false, 0},
		{"findings", working, false, true, 1},
		{"failed result-store writes", broken, false, false, 2},
		{"failed result-store writes and findings", broken, false, true, 2},
		{"failed sweep", working, true, false, 2},
	} {
		s := &Session{Name: "test", Store: tc.store, ctx: context.Background(), cancel: func() {}}
		Sweep(s, checker(tc.store, tc.fail), []int64{1, 2, 3}, "", []string{"ok"}, func(telemetry.Record) string { return "" })
		if got := s.status(tc.bad); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	if n := broken.Puts(); n != 0 {
		t.Errorf("broken store recorded %d results, want every Put to fail", n)
	}
}

// TestSkipCause pins the label of a sweep's skipped cells: a stop's own
// skips read stop-after even when the budget also ran out, and skips beyond
// the stop's are the budget's or a failed check's.
func TestSkipCause(t *testing.T) {
	failed := errors.New("check failed")
	for _, tc := range []struct {
		err                         error
		skipped, pending, stopAfter int
		want                        string
	}{
		{nil, 30, 100, 70, "stop-after"},
		{context.DeadlineExceeded, 30, 100, 70, "stop-after"},
		{context.DeadlineExceeded, 31, 100, 70, "budget"},
		{context.DeadlineExceeded, 5, 100, 0, "budget"},
		{context.DeadlineExceeded, 5, 50, 70, "budget"},
		{failed, 40, 100, 70, "error"},
		{failed, 5, 100, 0, "error"},
	} {
		if got := skipCause(tc.err, tc.skipped, tc.pending, tc.stopAfter); got != tc.want {
			t.Errorf("skipCause(%v, %d, %d, %d) = %q, want %q", tc.err, tc.skipped, tc.pending, tc.stopAfter, got, tc.want)
		}
	}
}
