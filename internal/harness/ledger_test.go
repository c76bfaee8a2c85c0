package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/telemetry"
)

// runLedgered sweeps specs on a fresh runner at the given parallelism,
// streaming records into an in-memory ledger, and returns the parsed file.
func runLedgered(t *testing.T, specs []Spec, parallelism int) *telemetry.LedgerFile {
	t.Helper()
	var buf bytes.Buffer
	l := telemetry.NewLedger(&buf)
	if err := l.WriteHeader(telemetry.NewHeader("ledger-test", parallelism)); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Parallelism: parallelism, Obs: &campaign.SweepObs{Ledger: l}}
	if _, err := r.RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lf, err := telemetry.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Validate(); err != nil {
		t.Fatal(err)
	}
	return lf
}

// TestLedgerSerialParallelIdentity pins the ledger determinism contract:
// sequence numbers are reserved in input order before dispatch, so a
// parallel campaign's ledger — re-sorted by seq and with the host-dependent
// fields (host_ns, worker) canonicalized away — is byte-identical to a
// serial one.
func TestLedgerSerialParallelIdentity(t *testing.T) {
	specs := smallSpecs(t)
	serial := runLedgered(t, specs, 1)
	parallel := runLedgered(t, specs, 8)

	if len(serial.Records) != len(specs) || len(parallel.Records) != len(specs) {
		t.Fatalf("record counts serial=%d parallel=%d want %d",
			len(serial.Records), len(parallel.Records), len(specs))
	}
	parallel.SortBySeq()
	serial.SortBySeq()

	canon := func(lf *telemetry.LedgerFile) []byte {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for _, r := range lf.Records {
			if err := enc.Encode(r.Canonical()); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	sb, pb := canon(serial), canon(parallel)
	if !bytes.Equal(sb, pb) {
		t.Errorf("canonicalized ledgers differ:\nserial:\n%s\nparallel:\n%s", sb, pb)
	}

	// Seq must follow input order, and every record must carry the cell's
	// identity and a real measurement.
	for i, r := range serial.Records {
		if r.Seq != uint64(i) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
		if r.Kind != "bench" || r.Workload != specs[i].Workload.Name {
			t.Errorf("record %d: kind %q workload %q, want bench/%s", i, r.Kind, r.Workload, specs[i].Workload.Name)
		}
		if r.SimCycles == 0 || r.Insts == 0 {
			t.Errorf("record %d carries no measurement: %+v", i, r)
		}
		if r.HostNs <= 0 {
			t.Errorf("record %d has no host cost", i)
		}
	}
}

// TestLedgerRecordsFailures: a failing cell still lands in the ledger with
// its error — the ledger is an account of the campaign, not just its
// successes.
func TestLedgerRecordsFailures(t *testing.T) {
	specs := smallSpecs(t)
	specs[0].Workload.Source = "bogus r1"

	var buf bytes.Buffer
	l := telemetry.NewLedger(&buf)
	if err := l.WriteHeader(telemetry.NewHeader("ledger-fail", 2)); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Parallelism: 2, Obs: &campaign.SweepObs{Ledger: l}}
	if _, err := r.RunAll(context.Background(), specs); err == nil {
		t.Fatal("broken cell did not fail the sweep")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lf, err := telemetry.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lf.SortBySeq()
	if len(lf.Records) == 0 || lf.Records[0].Err == "" {
		t.Fatalf("failing cell's record lost its error: %+v", lf.Records)
	}
}
