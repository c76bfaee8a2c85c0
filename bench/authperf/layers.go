package main

import (
	"fmt"
	"os"
	"time"

	"authpoint/internal/asm"
	"authpoint/internal/bus"
	"authpoint/internal/cache"
	"authpoint/internal/campaign"
	"authpoint/internal/cryptoengine/aes"
	"authpoint/internal/cryptoengine/ctr"
	"authpoint/internal/cryptoengine/hmac"
	"authpoint/internal/cryptoengine/mactree"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/dram"
	"authpoint/internal/mem"
	"authpoint/internal/secmem"
	"authpoint/internal/sim"
)

// layerCosts are per-operation host costs of the simulator's layers,
// measured by microbenchmarks at the sizes the simulator uses: a 16-byte AES
// block, a 64-byte counter-mode line, the 80-byte MAC message (address,
// counter, line), a MAC tree over a 2048-line image, the Table 3 L1 and L2
// shapes, and the default DRAM and bus. All values are ns per operation.
type layerCosts struct {
	AESBlock, CTRLine, HMACLine, TreeVerify, TreeSetLeaf, PACSign float64
	PipeCycle, L1Access, L2Access, DRAMAccess, BusTxn             float64
	// Seal is the cost of sealing one protected line (New, Protect and
	// FinishProtection), Load the extra cost of loading plaintext into it
	// (LoadPlain); the Tree variants run with the MAC tree on.
	Seal, Load, SealTree, LoadTree float64
	// Get and Put are campaign result-store operations on the workload's own
	// result payload.
	Get, Put float64
}

// protectLines is the image size of the secmem set-up microbenchmark.
const protectLines = 2048

var (
	benchKey  = []byte("authperf-microbenchmark-key-256b")
	benchSink uint64
)

// measureLayers runs every layer microbenchmark. scale divides the
// iteration counts (the smoke test runs at 1/100). payload is a real result
// of the workload, timed through a scratch campaign store under dir.
func measureLayers(scale int, payload any, dir string) (layerCosts, error) {
	n := func(full int) int { return max(1, full/scale) }
	var lc layerCosts

	blk := aes.MustNew(benchKey)
	var in, out [aes.BlockSize]byte
	lc.AESBlock = nsPerOp(n(200_000), func(i int) { in[0] = byte(i); blk.Encrypt(out[:], in[:]) })

	eng, err := ctr.NewEngine(benchKey, 64)
	if err != nil {
		return lc, err
	}
	line, pt := make([]byte, 64), make([]byte, 64)
	lc.CTRLine = nsPerOp(n(50_000), func(i int) { _ = eng.DecryptLineInto(pt, uint64(i%64)*64, line) })

	msg := make([]byte, 16+64)
	lc.HMACLine = nsPerOp(n(20_000), func(i int) {
		msg[0] = byte(i)
		mac := hmac.Mac(benchKey, msg)
		benchSink += uint64(mac[0])
	})

	tree, err := mactree.New(benchKey, protectLines, 8, 8)
	if err != nil {
		return lc, err
	}
	untrusted := func(mactree.NodeID) bool { return false }
	lc.TreeSetLeaf = nsPerOp(n(5_000), func(i int) {
		msg[0] = byte(i)
		_, _ = tree.SetLeaf(i%protectLines, msg)
	})
	lc.TreeVerify = nsPerOp(n(5_000), func(i int) { tree.VerifyLeaf(i%protectLines, msg, untrusted) })

	suite := pacmac.DefaultSuite()
	lc.PACSign = nsPerOp(n(200_000), func(i int) { benchSink += suite.Sign(uint64(i)<<3, 42, false) })

	mc := sim.DefaultMemConfig()
	for _, c := range []struct {
		cfg  cache.Config
		dest *float64
	}{
		{cache.Config{Name: "l1d", SizeB: mc.L1DB, LineB: mc.L1DLineB, Ways: mc.L1DWays}, &lc.L1Access},
		{cache.Config{Name: "l2", SizeB: mc.L2B, LineB: mc.L2LineB, Ways: mc.L2Ways}, &lc.L2Access},
	} {
		ch, err := cache.New(c.cfg)
		if err != nil {
			return lc, err
		}
		// A working set of half the cache: every access hits once warm.
		span := uint64(c.cfg.SizeB / 2)
		*c.dest = nsPerOp(n(1_000_000), func(i int) {
			a := uint64(i) * 8 % span
			if _, hit := ch.Access(a, false); !hit {
				ch.Fill(a, false)
			}
		})
	}

	d, err := dram.New(dram.Default())
	if err != nil {
		return lc, err
	}
	var now uint64
	lc.DRAMAccess = nsPerOp(n(500_000), func(i int) {
		now += 100
		d.Access(now, uint64(i*7919%16384)*64, 64)
	})
	b, err := bus.New(bus.Default())
	if err != nil {
		return lc, err
	}
	now = 0
	lc.BusTxn = nsPerOp(n(500_000), func(i int) {
		now += 100
		b.Transact(now, bus.ReadLine, uint64(i)*64, 72)
	})

	if lc.PipeCycle, err = pipelineCycleNs(n(100_000)); err != nil {
		return lc, err
	}
	for _, tr := range []struct {
		tree       bool
		seal, load *float64
	}{{false, &lc.Seal, &lc.Load}, {true, &lc.SealTree, &lc.LoadTree}} {
		sealOnly, err := protectNs(tr.tree, false, n(protectLines))
		if err != nil {
			return lc, err
		}
		full, err := protectNs(tr.tree, true, n(protectLines))
		if err != nil {
			return lc, err
		}
		*tr.seal, *tr.load = sealOnly, max(0, full-sealOnly)
	}

	lc.Get, lc.Put, err = storeNs(n(200), payload, dir)
	return lc, err
}

// nsPerOp times n calls of op three times and returns the median ns/op.
func nsPerOp(n int, op func(i int)) float64 {
	var runs []float64
	for r := 0; r < 3; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		runs = append(runs, float64(time.Since(t))/float64(n))
	}
	return median(runs)
}

// loopKernel keeps every stage busy with no memory traffic after the first
// fetches, so its host cost per stepped cycle is the pipeline's own.
const loopKernel = `
_start:
	li   r1, %d
loop:
	addi r2, r2, 1
	xor  r3, r3, r2
	slli r4, r2, 2
	add  r5, r5, r4
	addi r1, r1, -1
	bne  r1, r0, loop
	halt
`

// pipelineCycleNs is the host cost of one stepped (not fast-forwarded)
// cycle of the core on a compute loop of iters iterations, machine build
// excluded.
func pipelineCycleNs(iters int) (float64, error) {
	p, err := asm.Assemble(fmt.Sprintf(loopKernel, iters))
	if err != nil {
		return 0, err
	}
	var runs []float64
	for r := 0; r < 3; r++ {
		m, err := sim.NewMachine(sim.DefaultConfig(), p)
		if err != nil {
			return 0, err
		}
		perf := m.EnablePerf()
		t := time.Now()
		res, err := m.Run()
		el := time.Since(t)
		if err != nil {
			return 0, err
		}
		runs = append(runs, float64(el)/float64(res.Cycles-perf.SkipCycles))
	}
	return median(runs), nil
}

// protectNs is the per-line cost of protecting an n-line image the way
// sim.NewMachine does: secmem.New, Protect, FinishProtection and, with
// load, LoadPlain of every line.
func protectNs(tree, load bool, n int) (float64, error) {
	cfg := secmem.DefaultConfig()
	cfg.UseTree = tree
	image := make([]byte, n*cfg.LineB)
	for i := range image {
		image[i] = byte(i * 31)
	}
	const base = 0x100000
	var runs []float64
	for r := 0; r < 3; r++ {
		t := time.Now()
		c, err := secmem.New(cfg, mem.New(), bus.MustNew(bus.Default()), dram.MustNew(dram.Default()), benchKey, benchKey)
		if err == nil {
			err = c.Protect(base, uint64(len(image)))
		}
		if err == nil {
			err = c.FinishProtection()
		}
		if err == nil && load {
			err = c.LoadPlain(base, image)
		}
		if err != nil {
			return 0, fmt.Errorf("secmem set-up: %w", err)
		}
		runs = append(runs, float64(time.Since(t))/float64(n))
	}
	return median(runs), nil
}

// storeNs times n Puts and then n Gets of payload through a scratch store
// under dir, three times, and returns the median ns per Get and per Put.
func storeNs(n int, payload any, dir string) (get, put float64, err error) {
	var gets, puts []float64
	for r := 0; r < 3; r++ {
		sdir, err := os.MkdirTemp(dir, "store-bench-")
		if err != nil {
			return 0, 0, err
		}
		st, err := campaign.Open(sdir)
		if err != nil {
			return 0, 0, err
		}
		keys := make([]campaign.Key, n)
		for i := range keys {
			keys[i] = campaign.Key{Check: "authperf/bench", Kind: "bench", ProgDigest: campaign.Digest([]byte(fmt.Sprint(r, i)))}
		}
		t := time.Now()
		for _, k := range keys {
			if err := st.Put(k, payload); err != nil {
				return 0, 0, err
			}
		}
		puts = append(puts, float64(time.Since(t))/float64(n))
		t = time.Now()
		for _, k := range keys {
			var out map[string]any
			if ok, err := st.Get(k, &out); err != nil || !ok {
				return 0, 0, fmt.Errorf("campaign store: get of a stored key missed (%v)", err)
			}
		}
		gets = append(gets, float64(time.Since(t))/float64(n))
		if err := os.RemoveAll(sdir); err != nil {
			return 0, 0, err
		}
	}
	return median(gets), median(puts), nil
}
