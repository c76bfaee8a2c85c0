package pipeline

import "testing"

// TestStoreFilter drives the store filter, which lets a load skip the
// disambiguation scan, through the cases where it must and must not clear
// a load. Every Step checks the filter's state against the window and that
// every load it would clear has no store to forward from and none that
// blocks it (checkScheduler). Each case pins its architectural result and
// how many load issue attempts scanned the stores and how many the filter,
// or an empty window, cleared.
func TestStoreFilter(t *testing.T) {
	cases := []struct {
		name         string
		src          string
		mutate       func(*Config, *testMem)
		want         map[uint8]uint64 // register values at the halt
		scans, clear uint64
		park         bool
	}{
		{
			// The store covers bytes 4..11: the loads of word 2, which it
			// does not touch, and the load of word 1, which it overlaps,
			// must scan. The squash takes the store out of the filter.
			name: "misaligned store in the window",
			src: `
				_start:
					la   r2, buf
					addi r1, r0, 10
					addi r6, r0, 10
					div  r7, r1, r6     ; the branch resolves after 12 cycles
					bne  r7, r0, skip   ; mispredicted not-taken
					sd   r1, 4(r2)      ; wrong path: misaligned
					ld   r5, 16(r2)     ; wrong path: another word, scans
					lw   r8, 8(r2)      ; wrong path: overlaps the store, parks
				skip:
					ld   r3, 16(r2)     ; wrong path: scans; correct path: no store left
					halt
				.data
				buf: .word 1, 2, 3
			`,
			want:  map[uint8]uint64{3: 3, 5: 0, 8: 0},
			scans: 3, clear: 1, park: true,
		},
		{
			// lo's word is not the store's, but the store's address is
			// unknown when lo first tries to issue.
			name: "unresolved store older than the load",
			src: `
				_start:
					la   r2, buf
					ld   r3, 64(r2)     ; slow load: no older store, cleared
					and  r4, r3, r0
					add  r4, r4, r2     ; the store's base waits on it
					sd   r2, 0(r4)
				lo:	ld   r6, 8(r2)      ; scans and parks, then is cleared
					halt
				.data
				buf: .word 1, 2
				     .space 112
			`,
			mutate: func(cfg *Config, m *testMem) { m.dataLat = 60 },
			want:   map[uint8]uint64{6: 2},
			scans:  1, clear: 2, park: true,
		},
		{
			// The store writes lo's word but is younger, so lo neither
			// waits on it nor reads from it.
			name: "unresolved store younger than the load",
			src: `
				_start:
					la   r2, buf
					addi r1, r0, 84
					addi r3, r0, 2
					ld   r9, 64(r2)     ; slow load
					div  r4, r1, r3     ; lo's base, 12 cycles
					and  r4, r4, r0
					add  r4, r4, r2
				lo:	ld   r6, 8(r4)      ; the younger store is unresolved: cleared
					and  r7, r9, r0
					add  r7, r7, r2     ; the store's base waits on the slow load
					sd   r1, 8(r7)
					halt
				.data
				buf: .word 1, 2
				     .space 112
			`,
			mutate: func(cfg *Config, m *testMem) { m.dataLat = 60 },
			want:   map[uint8]uint64{6: 2},
			scans:  0, clear: 2,
		},
		{
			// Words 256 apart share a bucket: a load of either word, or of
			// a third word in that bucket, must scan.
			name: "two stores 2 KB apart share a bucket",
			src: `
				_start:
					la   r2, buf
					addi r1, r0, 7
					addi r4, r0, 9
					sd   r1, 0(r2)
					sd   r4, 2048(r2)
					ld   r3, 2048(r2)   ; forwards 9
					ld   r5, 4096(r2)   ; the same bucket, no store's word: reads memory
					ld   r6, 8(r2)      ; another bucket: cleared
					halt
				.data
				buf: .space 4096
				     .word 5
			`,
			want:  map[uint8]uint64{3: 9, 5: 5, 6: 0},
			scans: 2, clear: 1,
		},
		{
			name: "1-byte store inside the load's word",
			src: `
				_start:
					la   r2, buf
					addi r1, r0, 0x7f
					sb   r1, 3(r2)
					ld   r3, 0(r2)      ; a partial overlap: parks until the store commits
					halt
				.data
				buf: .word 0x1122334455667788
			`,
			want:  map[uint8]uint64{3: 0x112233447f667788},
			scans: 1, clear: 1, park: true,
		},
		{
			// The load reads the upper half of the store's 8-byte word, so
			// a filter keyed on 4-byte words would miss the overlap.
			name: "4-byte load in an 8-byte store's upper half",
			src: `
				_start:
					la   r2, buf
					addi r1, r0, -1
					sd   r1, 0(r2)
					lw   r3, 4(r2)      ; a partial overlap: parks until the store commits
					halt
				.data
				buf: .word 0
			`,
			want:  map[uint8]uint64{3: 0xffffffffffffffff},
			scans: 1, clear: 1, park: true,
		},
		{
			// The wrong-path store is resolved when the squash removes it;
			// the kept store keeps the window non-empty, so only the
			// filter can clear the load on the correct path.
			name: "resolved store squashed by a mispredict",
			src: `
				_start:
					la   r2, buf
					addi r1, r0, 10
					addi r6, r0, 10
					ld   r9, 64(r2)     ; slow load: holds the commits below
					sd   r1, 16(r2)     ; kept in the window
					div  r7, r1, r6     ; the branch resolves after 12 cycles
					bne  r7, r0, skip   ; mispredicted not-taken
					sd   r1, 0(r2)      ; wrong path: resolved, then squashed
				skip:
					ld   r3, 0(r2)      ; wrong path: forwards 10; correct path: cleared
					halt
				.data
				buf: .word 0x5a
				     .space 120
			`,
			mutate: func(cfg *Config, m *testMem) { m.dataLat = 60 },
			want:   map[uint8]uint64{3: 0x5a},
			scans:  1, clear: 2,
		},
		{
			// 256 stores to one word wait behind the slow load; the load
			// behind them scans all 256 and forwards from the youngest. A
			// count that wrapped at 256 would read an empty bucket and
			// clear the load to read memory.
			name: "256 stores to one word",
			src: `
				_start:
					la   r2, buf
					ld   r9, 64(r2)     ; slow load: holds every commit below
					addi r3, r0, 256
				loop:
					sd   r3, 0(r2)
					addi r3, r3, -1
					bne  r3, r0, loop
					ld   r5, 0(r2)      ; forwards 1 from the youngest store
					halt
				.data
				buf: .word 0x5a
				     .space 120
			`,
			mutate: func(cfg *Config, m *testMem) {
				cfg.RUUSize = 1024
				cfg.LSQSize = 512
				m.dataLat = 3000
			},
			want:  map[uint8]uint64{5: 1},
			scans: 1, clear: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, m := run(t, tc.src, tc.mutate, 20000)
			perf := &m.perf
			for r, v := range tc.want {
				if c.Reg(r) != v {
					t.Errorf("r%d = %#x, want %#x", r, c.Reg(r), v)
				}
			}
			if perf.DisambScans != tc.scans || perf.DisambShortCircuits != tc.clear {
				t.Errorf("%d scans and %d loads cleared without one, want %d and %d",
					perf.DisambScans, perf.DisambShortCircuits, tc.scans, tc.clear)
			}
			if tc.park != (m.parked > 0) {
				t.Errorf("a load was parked: %v, want %v", m.parked > 0, tc.park)
			}
		})
	}
}
