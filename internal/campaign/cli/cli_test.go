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
	// A plain file in place of every shard directory fails every Put.
	dir := t.TempDir()
	for i := 0; i < 256; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02x", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	broken, err := campaign.Open(dir)
	if err != nil {
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
}
