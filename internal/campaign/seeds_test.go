package campaign

import (
	"reflect"
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
}
