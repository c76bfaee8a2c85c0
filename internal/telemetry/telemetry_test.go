package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf)
	if err := l.WriteHeader(NewHeader("unit", 4)); err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Seq: 0, Kind: "bench", Workload: "mcfx", Policy: "authen-then-commit",
			SimCycles: 1234, Insts: 500, HostNs: 99, Worker: 2},
		{Seq: 1, Kind: "fuzz", Policy: "authen-then-issue", Seed: -7, Tamper: true,
			Site: "dram", Verdict: "detected", SimCycles: 42},
		{Seq: 2, Kind: "verify", Policy: "baseline", Cached: true, Err: "boom"},
	}
	for _, r := range recs {
		l.Emit(r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	lf, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lf.Header.Campaign != "unit" || lf.Header.Schema != LedgerSchema || lf.Header.Parallelism != 4 {
		t.Fatalf("header %+v", lf.Header)
	}
	if len(lf.Records) != len(recs) {
		t.Fatalf("read %d records, want %d", len(lf.Records), len(recs))
	}
	for i, r := range lf.Records {
		if r != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, r, recs[i])
		}
	}
	if err := lf.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerReserveSeqConcurrent(t *testing.T) {
	l := NewLedger(&bytes.Buffer{})
	const goroutines, batch = 8, 100
	var wg sync.WaitGroup
	starts := make(chan uint64, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			starts <- l.ReserveSeq(batch)
		}()
	}
	wg.Wait()
	close(starts)
	seen := map[uint64]bool{}
	for s := range starts {
		if s%batch != 0 || seen[s] {
			t.Fatalf("batch start %d misaligned or duplicated", s)
		}
		seen[s] = true
	}
	if next := l.ReserveSeq(1); next != goroutines*batch {
		t.Fatalf("next seq %d, want %d", next, goroutines*batch)
	}
}

func TestLedgerEmitAdvancesSeq(t *testing.T) {
	l := NewLedger(&bytes.Buffer{})
	l.Emit(Record{Seq: 41, Kind: "bench"})
	if next := l.ReserveSeq(1); next != 42 {
		t.Fatalf("seq after explicit Emit(41) = %d, want 42", next)
	}
}

func TestRecordCanonical(t *testing.T) {
	r := Record{Seq: 9, Kind: "bench", Workload: "artx", HostNs: 123456, Worker: 3, SimCycles: 10}
	c := r.Canonical()
	if c.HostNs != 0 || c.Worker != 0 {
		t.Fatalf("canonical kept host fields: %+v", c)
	}
	if c.Seq != 9 || c.Kind != "bench" || c.Workload != "artx" || c.SimCycles != 10 {
		t.Fatalf("canonical mutated payload fields: %+v", c)
	}
}

func TestReadRejectsBadLedgers(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "not json\n",
		"bad schema": `{"schema":"other/v9"}` + "\n",
		"bad record": `{"schema":"` + LedgerSchema + `"}` + "\n" + "garbage\n",
	}
	for name, data := range cases {
		if _, err := Read(strings.NewReader(data)); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	empty := &LedgerFile{}
	if err := empty.Validate(); err == nil {
		t.Error("empty ledger validated")
	}
	noKind := &LedgerFile{Records: []Record{{Seq: 0}}}
	if err := noKind.Validate(); err == nil {
		t.Error("kindless record validated")
	}
	dup := &LedgerFile{Records: []Record{{Seq: 3, Kind: "bench"}, {Seq: 3, Kind: "bench"}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate seq validated")
	}
}

func TestSortBySeq(t *testing.T) {
	lf := &LedgerFile{Records: []Record{{Seq: 2, Kind: "a"}, {Seq: 0, Kind: "b"}, {Seq: 1, Kind: "c"}}}
	lf.SortBySeq()
	for i, r := range lf.Records {
		if r.Seq != uint64(i) {
			t.Fatalf("position %d holds seq %d", i, r.Seq)
		}
	}
}

func TestWorkerContext(t *testing.T) {
	ctx := t.Context()
	if w := Worker(ctx); w != 0 {
		t.Fatalf("untagged ctx worker = %d", w)
	}
	if w := Worker(WithWorker(ctx, 5)); w != 5 {
		t.Fatalf("tagged ctx worker = %d", w)
	}
}

func TestMeterFinishes(t *testing.T) {
	var buf bytes.Buffer
	m := NewMeter(&buf, "unit", 0)
	m.AddTotal(3)
	m.Tick(1)
	m.Tick(2)
	m.Finish()
	out := buf.String()
	if !strings.Contains(out, "unit") || !strings.Contains(out, "3 done") {
		t.Fatalf("meter output %q lacks label or final count", out)
	}
	// A nil meter must be a no-op everywhere (callers pass it unconditionally).
	var nilM *Meter
	nilM.AddTotal(1)
	nilM.Tick(1)
	nilM.Finish()
}

// FuzzReadLedger feeds arbitrary bytes to the ledger reader and, when it
// accepts them, to Validate. Neither may panic or hang. The seeds are
// ledgers the Ledger writer produces — a fuzz campaign's, a resumed
// budgeted one with skipped records, one with a sequence gap — and a
// truncated one.
func FuzzReadLedger(f *testing.F) {
	ledger := func(recs ...Record) []byte {
		var buf bytes.Buffer
		l := NewLedger(&buf)
		if err := l.WriteHeader(NewHeader("authfuzz", 2)); err != nil {
			f.Fatal(err)
		}
		for _, r := range recs {
			l.Emit(r)
		}
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	fuzz := ledger(
		Record{Seq: 0, Kind: "fuzz", Seed: 1, Policy: "authen-then-commit", Verdict: "ok", SimCycles: 812, HostNs: 9000},
		Record{Seq: 1, Kind: "fuzz", Seed: 1, Policy: "baseline", Tamper: true, Site: "mac", Verdict: "detected", SimCycles: 77},
		Record{Seq: 2, Kind: "verify", Seed: 2, Policy: "baseline", Verdict: "licensed", Cached: true},
	)
	f.Add(fuzz)
	f.Add(ledger(
		Record{Seq: 1, Kind: "fuzz", Seed: 2, Policy: "authen-then-issue", Verdict: VerdictSkipped},
		Record{Seq: 0, Kind: "fuzz", Seed: 1, Policy: "authen-then-issue", Verdict: "ok", Err: "boom"},
	))
	f.Add(ledger(Record{Seq: 0, Kind: "fuzz"}, Record{Seq: 5, Kind: "fuzz"}))
	f.Add(fuzz[:len(fuzz)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		lf, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = lf.Validate()
	})
}
