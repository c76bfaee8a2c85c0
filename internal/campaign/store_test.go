package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// segmentOf puts n records into a fresh store and returns their keys and
// payloads, the segment's bytes, and the end offset of each record.
func segmentOf(t *testing.T, n int) (keys []Key, vals []payload, seg []byte, ends []int64) {
	t.Helper()
	s := mustOpen(t, t.TempDir())
	for i := 0; i < n; i++ {
		k := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: fmt.Sprint(i), Policy: "p", Options: "o", Model: "m"}
		if i%2 == 1 {
			k.Tamper, k.Site = true, "entry"
		}
		v := payload{Verdict: "ok", Cycles: uint64(100 + i)}
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		keys, vals, ends = append(keys, k), append(vals, v), append(ends, s.w.size)
	}
	seg, err := os.ReadFile(s.w.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return keys, vals, seg, ends
}

// served reports which keys s serves, failing on any wrong payload.
func served(t *testing.T, s *Store, keys []Key, vals []payload) []bool {
	t.Helper()
	out := make([]bool, len(keys))
	for i, k := range keys {
		var got payload
		ok, _ := s.Get(k, &got)
		if ok && got != vals[i] {
			t.Fatalf("record %d served %+v, want %+v", i, got, vals[i])
		}
		out[i] = ok
	}
	return out
}

// TestStoreTornTail is the crash test: a segment cut at any byte offset
// serves exactly the records wholly before the cut, and nothing else.
func TestStoreTornTail(t *testing.T) {
	keys, vals, seg, ends := segmentOf(t, 4)
	dir := t.TempDir()
	for cut := 0; cut <= len(seg); cut++ {
		if err := os.WriteFile(filepath.Join(dir, "a.seg"), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := served(t, mustOpen(t, dir), keys, vals)
		for i := range keys {
			if want := ends[i] <= int64(cut); got[i] != want {
				t.Fatalf("cut at %d of %d: record %d served=%v, want %v", cut, len(seg), i, got[i], want)
			}
		}
	}
}

// TestStoreBitFlip changes each byte of a segment, before Open and after
// it. The record holding the byte misses and no wrong payload is served.
// Records before it serve; an Open stops its scan at the bad record, so
// records after it miss until they are put again, while a store opened
// before the change serves them.
func TestStoreBitFlip(t *testing.T) {
	keys, vals, seg, ends := segmentOf(t, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.seg")
	for i := range seg {
		bad := bytes.Clone(seg)
		bad[i] ^= 0xff
		hit := 0
		for ends[hit] <= int64(i) {
			hit++
		}
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		for j, ok := range served(t, mustOpen(t, dir), keys, vals) {
			if ok != (j < hit) {
				t.Fatalf("byte %d flipped before Open: record %d served=%v", i, j, ok)
			}
		}
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		for j, ok := range served(t, s, keys, vals) {
			if ok != (j != hit) {
				t.Fatalf("byte %d flipped after Open: record %d served=%v", i, j, ok)
			}
		}
	}
}

// TestStoreLegacyLayoutMisses opens a directory holding an entry of the
// per-entry layout (key schema v1): the store does not read it, so every
// lookup misses and nothing aliases.
func TestStoreLegacyLayoutMisses(t *testing.T) {
	dir := t.TempDir()
	k := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o"}
	// The entry the per-entry store wrote for k, byte for byte.
	const v1ID = "9144328ee2fa572028e7be48d5279a8cb992ec73959972a808d4e3e6c72ee11c"
	v1 := `{"schema":"authcampaign/entry/v1","key":{"check":"c/v1","kind":"fuzz","prog":"aa","policy":"p","options":"o"},"result":{"Verdict":"ok","Cycles":42}}` + "\n"
	if err := os.MkdirAll(filepath.Join(dir, v1ID[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, v1ID[:2], v1ID+".json"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if k.ID() == v1ID {
		t.Fatal("key ID unchanged by the schema bump")
	}
	s := mustOpen(t, dir)
	var got payload
	if ok, err := s.Get(k, &got); ok || err != nil {
		t.Fatalf("v1 entry Get = (%v, %v), want miss", ok, err)
	}
	want := payload{Verdict: "new", Cycles: 7}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if got := served(t, mustOpen(t, dir), []Key{k}, []payload{want}); !got[0] {
		t.Fatal("record put beside a v1 entry not served")
	}
}

// TestStoreSharedDirectory runs two stores on one directory, eight
// goroutines each putting and getting, the two stores writing the same keys
// too; a fresh Open then serves every record.
func TestStoreSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	stores := []*Store{mustOpen(t, dir), mustOpen(t, dir)}
	const workers, perWorker = 8, 20
	key := func(w, i int) Key {
		return Key{Check: "c/v1", Kind: "fuzz", ProgDigest: fmt.Sprint(w, "/", i), Policy: "p", Options: "o"}
	}
	val := func(w, i int) payload { return payload{Verdict: "ok", Cycles: uint64(w*1000 + i)} }
	var wg sync.WaitGroup
	for _, s := range stores {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(s *Store, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if err := s.Put(key(w, i), val(w, i)); err != nil {
						t.Error(err)
						return
					}
					var got payload
					if ok, err := s.Get(key(w, i), &got); err != nil || !ok || got != val(w, i) {
						t.Errorf("Get after Put = (%v, %v, %+v)", ok, err, got)
						return
					}
				}
			}(s, w)
		}
	}
	wg.Wait()
	for _, s := range stores {
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var keys []Key
	var vals []payload
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			keys, vals = append(keys, key(w, i)), append(vals, val(w, i))
		}
	}
	for i, ok := range served(t, mustOpen(t, dir), keys, vals) {
		if !ok {
			t.Fatalf("fresh Open missed %+v", keys[i])
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(segs) != 2 {
		t.Fatalf("two stores wrote %d segments, want 2", len(segs))
	}
}

// TestStoreFailedWrite pins that a write which fails, and cannot be undone,
// leaves every earlier record servable, sets Err, and moves later Puts to a
// fresh segment.
func TestStoreFailedWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keys := make([]Key, 4)
	vals := make([]payload, 4)
	for i := range keys {
		keys[i] = Key{Check: "c/v1", Kind: "fuzz", ProgDigest: fmt.Sprint(i)}
		vals[i] = payload{Verdict: "ok", Cycles: uint64(i)}
	}
	for i := 0; i < 2; i++ {
		if err := s.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A read-only handle on the segment fails the write and its truncation.
	ro, err := os.Open(s.w.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	s.w.f = ro
	if err := s.Put(keys[2], vals[2]); err == nil {
		t.Fatal("write through a read-only handle succeeded")
	}
	first := s.Err()
	if first == nil {
		t.Fatal("failed write left Err nil")
	}
	if err := s.Put(keys[3], vals[3]); err != nil {
		t.Fatalf("Put after a failed write: %v", err)
	}
	if s.Err() != first {
		t.Fatalf("Err = %v, want the first error %v", s.Err(), first)
	}
	for _, st := range []*Store{s, mustOpen(t, dir)} {
		if got := served(t, st, keys, vals); !got[0] || !got[1] || got[2] || !got[3] {
			t.Fatalf("served %v, want every record but the failed one", got)
		}
	}
}

// FuzzDecodeRecord: the record decoder never panics, never accepts a record
// whose CRC or key fields do not verify, and an accepted record re-encodes
// to the same bytes. Each input is decoded as it is, and as a body behind a
// valid header, which reaches the key-field parser past the CRC.
func FuzzDecodeRecord(f *testing.F) {
	rec := encodeRecord(Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o",
		Model: "m", Tamper: true, Site: "entry"}, []byte(`{"Verdict":"ok","Cycles":42}`))
	f.Add(rec)
	f.Add(encodeRecord(Key{}, nil))
	f.Add(append(bytes.Clone(rec), rec...))
	for _, cut := range []int{0, 4, headerLen - 1, headerLen, headerLen + 9, len(rec) - 1} {
		f.Add(rec[:cut])
	}
	for _, i := range []int{0, 4, 8, 12, headerLen, headerLen + 8, len(rec) - 1} {
		b := bytes.Clone(rec)
		b[i] ^= 0x10
		f.Add(b)
	}
	f.Add(rec[headerLen:])
	body := appendKey(nil, Key{Check: "c/v1"})
	body[len(body)-1] = 2 // a tamper byte that is neither 0 nor 1
	f.Add(append(body, '1'))
	f.Fuzz(func(t *testing.T, b []byte) {
		framed := make([]byte, headerLen, headerLen+len(b))
		copy(framed, recordMagic)
		binary.LittleEndian.PutUint32(framed[4:], recordVersion)
		binary.LittleEndian.PutUint32(framed[8:], uint32(len(b)))
		binary.LittleEndian.PutUint32(framed[12:], crc32.Checksum(b, castagnoli))
		for _, in := range [][]byte{b, append(framed, b...)} {
			k, payload, n, err := decodeRecord(in)
			if err != nil {
				continue
			}
			if crc32.Checksum(in[headerLen:n], castagnoli) != binary.LittleEndian.Uint32(in[12:]) {
				t.Fatalf("accepted a record whose CRC does not verify: %x", in)
			}
			if re := encodeRecord(k, payload); !bytes.Equal(re, in[:n]) {
				t.Fatalf("accepted record %x re-encodes as %x", in[:n], re)
			}
		}
	})
}
