package campaign

import (
	"path/filepath"
	"testing"

	"authpoint/internal/telemetry"
)

type payload struct {
	Verdict string
	Cycles  uint64
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: Digest([]byte("prog")),
		Policy: "baseline", Options: "watchdog=1"}

	var got payload
	if ok, err := s.Get(k, &got); err != nil || ok {
		t.Fatalf("empty store Get = (%v, %v), want miss", ok, err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Fatalf("Open and a miss wrote %v", files)
	}
	want := payload{Verdict: "ok", Cycles: 42}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get(k, &got); err != nil || !ok {
		t.Fatalf("Get after Put = (%v, %v), want hit", ok, err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if s.Hits() != 1 || s.Misses() != 1 || s.Puts() != 1 {
		t.Fatalf("counters hits=%d misses=%d puts=%d, want 1/1/1", s.Hits(), s.Misses(), s.Puts())
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*")); len(segs) != 1 || filepath.Ext(segs[0]) != ".seg" {
		t.Fatalf("store directory holds %v, want one segment", segs)
	}
}

// TestKeyIDSensitivity pins that every key field feeds the content address —
// a field change must address a different entry — and that tamper site is
// folded in only for tamper keys.
func TestKeyIDSensitivity(t *testing.T) {
	base := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o"}
	variants := []Key{
		{Check: "c/v2", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o"},
		{Check: "c/v1", Kind: "verify", ProgDigest: "aa", Policy: "p", Options: "o"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "bb", Policy: "p", Options: "o"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "q", Options: "o"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "x"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o", Model: "m"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o", Tamper: true, Site: "entry"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o", Tamper: true, Site: "data"},
	}
	ids := map[string]Key{base.ID(): base}
	for _, v := range variants {
		id := v.ID()
		if prev, dup := ids[id]; dup {
			t.Fatalf("keys %+v and %+v share ID %s", prev, v, id)
		}
		ids[id] = v
	}
	// Concatenation attacks must not alias: shifting a byte across a field
	// boundary changes the ID because fields are length-prefixed.
	a := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "ab", Policy: "c", Options: "o"}
	b := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "a", Policy: "bc", Options: "o"}
	if a.ID() == b.ID() {
		t.Fatal("field-boundary shift aliased two keys")
	}
	// Site without tamper is not part of the address (non-tamper cells have
	// no site); canonical callers leave it empty.
	c := base
	c.Site = "entry"
	if c.ID() != base.ID() {
		t.Fatal("site changed the ID of a non-tamper key")
	}
}

// TestStoreCorruptEntryIsMiss pins that a record which no longer verifies,
// or which is stored under other key fields, never serves: it misses, and a
// later Put of the key makes it hit again.
func TestStoreCorruptEntryIsMiss(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	k := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o"}
	if err := s.Put(k, payload{Verdict: "ok"}); err != nil {
		t.Fatal(err)
	}
	// A key whose index entry leads to a record written under different key
	// fields (hash collision, stale derivation) must miss, not alias.
	k2 := k
	k2.Options = "other"
	s.index[k2.sum()] = s.index[k.sum()]
	var got payload
	if ok, _ := s.Get(k2, &got); ok {
		t.Fatal("key-mismatched record served as a hit")
	}
	// One byte of the record's payload changed on disk after Open.
	l := s.index[k.sum()]
	if _, err := l.seg.f.WriteAt([]byte{'#'}, l.off+int64(l.n)-2); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get(k, &got); err != nil || ok {
		t.Fatalf("corrupt record Get = (%v, %v), want miss", ok, err)
	}
	// The cell re-simulates and its new record serves.
	if err := s.Put(k, payload{Verdict: "ok"}); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get(k, &got); err != nil || !ok || got.Verdict != "ok" {
		t.Fatalf("Put after corruption: (%v, %v, %+v)", ok, err, got)
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompleted pins the checkpoint semantics: terminal verdicts are done,
// skipped and empty verdicts are not.
func TestCompleted(t *testing.T) {
	lf := &telemetry.LedgerFile{Records: []telemetry.Record{
		{Seq: 0, Kind: "fuzz", Policy: "p", Seed: 1, Verdict: "ok"},
		{Seq: 1, Kind: "fuzz", Policy: "p", Seed: 2, Verdict: telemetry.VerdictSkipped},
		{Seq: 2, Kind: "fuzz", Policy: "p", Seed: 3},
		{Seq: 3, Kind: "fuzz", Policy: "p", Seed: 4, Tamper: true, Site: "entry", Verdict: "contained"},
		{Seq: 4, Kind: "verify", Policy: "p", Seed: 1, Verdict: "clean"},
	}}
	done := Completed(lf)
	if len(done) != 3 {
		t.Fatalf("Completed returned %d cells, want 3: %v", len(done), done)
	}
	if v := done[CellID{Kind: "fuzz", Policy: "p", Seed: 1}]; v != "ok" {
		t.Fatalf("seed 1 verdict %q, want ok", v)
	}
	if v := done[CellID{Kind: "fuzz", Policy: "p", Seed: 4, Tamper: true, Site: "entry"}]; v != "contained" {
		t.Fatalf("tamper cell verdict %q, want contained", v)
	}
	if v := done[CellID{Kind: "verify", Policy: "p", Seed: 1}]; v != "clean" {
		t.Fatalf("verify cell verdict %q, want clean", v)
	}
	if _, ok := done[CellID{Kind: "fuzz", Policy: "p", Seed: 2}]; ok {
		t.Fatal("skipped cell counted as completed")
	}
}

func TestLoadCompleted(t *testing.T) {
	path := t.TempDir() + "/ledger.jsonl"
	l, err := telemetry.Create(path, telemetry.NewHeader("test", 1))
	if err != nil {
		t.Fatal(err)
	}
	l.ReserveSeq(2)
	l.Emit(telemetry.Record{Seq: 0, Kind: "fuzz", Policy: "p", Seed: 7, Verdict: "ok"})
	l.Emit(telemetry.Record{Seq: 1, Kind: "fuzz", Policy: "p", Seed: 8, Verdict: telemetry.VerdictSkipped})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	done, err := LoadCompleted(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[CellID{Kind: "fuzz", Policy: "p", Seed: 7}] != "ok" {
		t.Fatalf("LoadCompleted = %v, want one ok cell", done)
	}
	// A ledger with a sequence hole is a corrupt checkpoint: resume must
	// refuse it rather than silently re-run (or skip) the lost cells.
	hole := t.TempDir() + "/hole.jsonl"
	l2, err := telemetry.Create(hole, telemetry.NewHeader("test", 1))
	if err != nil {
		t.Fatal(err)
	}
	l2.ReserveSeq(3)
	l2.Emit(telemetry.Record{Seq: 0, Kind: "fuzz", Policy: "p", Seed: 1, Verdict: "ok"})
	l2.Emit(telemetry.Record{Seq: 2, Kind: "fuzz", Policy: "p", Seed: 3, Verdict: "ok"})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCompleted(hole); err == nil {
		t.Fatal("ledger with a sequence hole accepted as a checkpoint")
	}
}
