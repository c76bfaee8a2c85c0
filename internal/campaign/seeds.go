package campaign

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxSeedRange bounds how many seeds one -seeds flag may expand to. The
// explicit list is materialized up front, so an unbounded range would OOM the
// CLI before any work starts; 1<<24 (~16.7M) seeds is comfortably past the
// nightly tens-of-thousands shape while still only ~128MB of list.
const MaxSeedRange = 1 << 24

// ParseSeedRange parses an inclusive "lo:hi" seed-range flag into the
// explicit seed list — the -seeds grammar shared by the fuzzing and
// verification CLIs. A bare "42" is shorthand for "42:42".
func ParseSeedRange(s string) ([]int64, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seeds %q: want lo:hi or a single seed", s)
		}
		return []int64{v}, nil
	}
	l, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	h, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
	if err1 != nil || err2 != nil || h < l {
		return nil, fmt.Errorf("seeds %q: want lo:hi with hi >= lo", s)
	}
	// h-l+1 overflows int64 for wide ranges (e.g. the full int64 span),
	// flipping the make cap negative; compute the width in uint64, where
	// two's-complement subtraction is exact for any l <= h. The loop counts
	// over the width too: a loop `v <= h` never ends when h is MaxInt64.
	width := uint64(h) - uint64(l)
	if width >= MaxSeedRange {
		return nil, fmt.Errorf("seeds %q: range spans more than %d seeds", s, MaxSeedRange)
	}
	out := make([]int64, width+1)
	for i := range out {
		out[i] = l + int64(i)
	}
	return out, nil
}
