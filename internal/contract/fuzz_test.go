package contract

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeLeak feeds arbitrary bytes to the .leak decoder, seeded with the
// checked-in corpus. It must not panic or hang, and an accepted leak's
// encoding reaches a fixed point: encoding what the encoding decodes to
// gives the same bytes. (Bytes, not structs: "channels": [] decodes to an
// empty slice, which the encoder omits.)
func FuzzDecodeLeak(f *testing.F) {
	paths, err := filepath.Glob("testdata/*.leak")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"` + LeakSchema + `","source":"halt","channels":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLeak(data)
		if err != nil {
			return
		}
		enc := l.Encode()
		again, err := DecodeLeak(enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v\n%s", err, enc)
		}
		if enc2 := again.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not a fixed point:\n%s\nthen\n%s", enc, enc2)
		}
	})
}
