package bus

import (
	"testing"
	"testing/quick"
)

func TestValidation(t *testing.T) {
	for _, cfg := range []Config{
		{CorePerBus: 0, BusBytes: 8, AddrBeats: 1},
		{CorePerBus: 5, BusBytes: 0, AddrBeats: 1},
		{CorePerBus: 5, BusBytes: 8, AddrBeats: 0},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestTransactTiming(t *testing.T) {
	b := MustNew(Default()) // 5 core/bus, 8B, 1 addr beat
	addrDone, dataDone := b.Transact(0, ReadLine, 0x1000, 64)
	if addrDone != 5 {
		t.Errorf("addr phase done at %d want 5", addrDone)
	}
	if dataDone != 5+8*5 {
		t.Errorf("data done at %d want 45", dataDone)
	}
}

func TestOccupancySerializes(t *testing.T) {
	b := MustNew(Default())
	_, done1 := b.Transact(0, ReadLine, 0x0, 64)
	addr2, _ := b.Transact(0, ReadLine, 0x40, 64)
	if addr2 < done1 {
		t.Errorf("second transaction overlapped: addr2=%d done1=%d", addr2, done1)
	}
	if b.BusyCycles() == 0 {
		t.Error("busy cycles not counted")
	}
	if b.NextFree() < done1 {
		t.Error("NextFree went backwards")
	}
}

func TestTraceRecordsAddressesAtAddrPhase(t *testing.T) {
	b := MustNew(Default())
	b.Transact(100, ReadLine, 0xdead00, 64)
	b.Transact(200, WriteLine, 0xbeef00, 64)
	b.Transact(300, ReadMeta, 0x777000, 8)
	tr := b.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[0].Addr != 0xdead00 || tr[0].Kind != ReadLine || tr[0].Cycle != 105 {
		t.Errorf("event 0: %+v", tr[0])
	}
	reads := b.ReadAddresses()
	if len(reads) != 1 || reads[0] != 0xdead00 {
		t.Errorf("read addresses %v", reads)
	}
}

func TestTracingToggleAndClear(t *testing.T) {
	b := MustNew(Default())
	b.SetTracing(false)
	b.Transact(0, ReadLine, 0x1, 64)
	if len(b.Trace()) != 0 {
		t.Error("traced while disabled")
	}
	b.SetTracing(true)
	b.Transact(0, ReadLine, 0x2, 64)
	if len(b.Trace()) != 1 {
		t.Error("not traced while enabled")
	}
	b.ClearTrace()
	if len(b.Trace()) != 0 {
		t.Error("clear failed")
	}
	// The transaction count covers untraced transactions too, and only a
	// Reset zeroes it.
	if n := b.Txns(); n != 2 {
		t.Errorf("Txns = %d, want 2", n)
	}
	if err := b.Reset(Default()); err != nil || b.Txns() != 0 {
		t.Errorf("after Reset: Txns = %d, err %v", b.Txns(), err)
	}
}

func TestSmallTransfer(t *testing.T) {
	b := MustNew(Default())
	addrDone, dataDone := b.Transact(0, ReadMeta, 0, 8)
	if dataDone-addrDone != 5 {
		t.Errorf("8-byte transfer beats: %d", dataDone-addrDone)
	}
	_, d2 := b.Transact(1000, ReadMeta, 0, 9)
	if d2 != 1000+5+2*5 {
		t.Errorf("9-byte transfer rounds up: %d", d2)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{ReadLine, WriteLine, ReadMeta, WriteMeta} {
		if k.String() == "?" || k.String() == "" {
			t.Errorf("kind %d has no string", k)
		}
	}
}

// Property: transactions never overlap and time is monotone.
func TestQuickNoOverlap(t *testing.T) {
	b := MustNew(Default())
	var lastDone uint64
	now := uint64(0)
	f := func(adv uint16, nbytes uint8) bool {
		now += uint64(adv)
		n := int(nbytes)%64 + 1
		addrDone, dataDone := b.Transact(now, ReadLine, uint64(now), n)
		ok := addrDone >= now && dataDone > addrDone && addrDone >= lastDone
		lastDone = dataDone
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
