package campaign

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseSeedRange(t *testing.T) {
	got, err := ParseSeedRange("1:3")
	if err != nil || !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("1:3 = (%v, %v)", got, err)
	}
	got, err = ParseSeedRange("42")
	if err != nil || !reflect.DeepEqual(got, []int64{42}) {
		t.Fatalf("bare 42 = (%v, %v), want the single-seed shorthand", got, err)
	}
	got, err = ParseSeedRange(" 5 : 5 ")
	if err != nil || !reflect.DeepEqual(got, []int64{5}) {
		t.Fatalf("padded 5:5 = (%v, %v)", got, err)
	}
	for _, bad := range []string{"", "abc", "3:1", "1:", ":3", "1:2:3"} {
		if _, err := ParseSeedRange(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestParseSeedRangeOverflow: the full int64 span must not overflow h-l+1
// into a negative make cap (a panic); it is a clean range-too-large error,
// as is anything past MaxSeedRange.
func TestParseSeedRangeOverflow(t *testing.T) {
	wide := []string{
		"-9223372036854775808:9223372036854775807", // full int64 span
		"0:9223372036854775807",
		"-1:16777215", // width 1<<24, one past the cap
	}
	for _, s := range wide {
		got, err := ParseSeedRange(s)
		if err == nil {
			t.Fatalf("%q accepted (%d seeds)", s, len(got))
		}
		if !strings.Contains(err.Error(), "range spans") {
			t.Fatalf("%q: error %v does not name the range cap", s, err)
		}
	}
	// A range ending at MaxInt64 must stop there rather than wrap around.
	got, err := ParseSeedRange("9223372036854775806:9223372036854775807")
	if err != nil || !reflect.DeepEqual(got, []int64{math.MaxInt64 - 1, math.MaxInt64}) {
		t.Fatalf("range ending at MaxInt64 = (%v, %v)", got, err)
	}
}

// FuzzParseSeedRange: the parser never panics. An accepted range is lo..hi
// in order, at most MaxSeedRange seeds long; anything else is an error.
func FuzzParseSeedRange(f *testing.F) {
	for _, s := range []string{"1:3", "42", " 5 : 5 ", "3:1", "1:2:3", "",
		"9223372036854775806:9223372036854775807",
		"-9223372036854775808:-9223372036854775807",
		"-9223372036854775808:9223372036854775807"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseSeedRange(s)
		if err != nil {
			return
		}
		if len(got) == 0 || len(got) > MaxSeedRange {
			t.Fatalf("%q: %d seeds", s, len(got))
		}
		lo, hi, ok := strings.Cut(s, ":")
		if !ok {
			hi = lo // a bare seed
		}
		l, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
		h, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%q accepted but its bounds do not parse: %v, %v", s, err1, err2)
		}
		if uint64(len(got)) != uint64(h)-uint64(l)+1 || got[0] != l {
			t.Fatalf("%q: %d seeds from %d, want %d..%d", s, len(got), got[0], l, h)
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[i-1]+1 {
				t.Fatalf("%q: seed %d is %d after %d", s, i, got[i], got[i-1])
			}
		}
	})
}
