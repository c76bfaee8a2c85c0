package cli

import (
	"os"
	"path/filepath"
	"testing"
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
