package experiments

import (
	"fmt"
	"io"

	"authpoint/internal/policy"
	"authpoint/internal/secmem"
	"authpoint/internal/sim"
)

// AblationPoint is one configuration's result: normalized IPC (against the
// same-variant decrypt-only baseline) and absolute IPC. Both matter: a
// variant that slows the baseline too can show a *higher* ratio while being
// absolutely slower — counter prediction and decrypt latency do exactly
// that.
type AblationPoint struct {
	Label   string
	Mean    float64 // mean normalized IPC
	MeanIPC float64 // mean absolute IPC under the scheme
}

// Ablation is one named sensitivity study.
type Ablation struct {
	Title  string
	Points []AblationPoint
}

// Render prints one study.
func (a *Ablation) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", a.Title)
	for _, pt := range a.Points {
		fmt.Fprintf(w, "  %-28s normalized %6.3f   absolute IPC %7.4f\n", pt.Label, pt.Mean, pt.MeanIPC)
	}
}

// ablationPoint is one configuration of a study: a control point under a
// config variant.
type ablationPoint struct {
	label   string
	policy  policy.ControlPoint
	variant Variant
}

// ablate sweeps each point's control point under its variant and collects
// the point's mean normalized and absolute IPC. Normalization is within the
// variant: each point's baseline runs under the same variant.
func ablate(title string, p Params, points []ablationPoint) (*Ablation, error) {
	a := &Ablation{Title: title}
	for _, pt := range points {
		sw, err := RunSweep(pt.label, p, []policy.ControlPoint{pt.policy}, pt.variant)
		if err != nil {
			return nil, err
		}
		abs := 0.0
		for _, r := range sw.Rows {
			abs += r.IPC[pt.policy]
		}
		a.Points = append(a.Points, AblationPoint{
			Label:   pt.label,
			Mean:    sw.MeanNormalized(pt.policy),
			MeanIPC: abs / float64(max(len(sw.Rows), 1)),
		})
	}
	return a, nil
}

// AblationFetchVariants compares the two authen-then-fetch implementations
// the paper sketches in §4.2.4: the LastRequest-register (per-instruction
// tag) variant against the simpler drain variant.
func AblationFetchVariants(p Params) (*Ablation, error) {
	return ablate("Ablation: authen-then-fetch implementation variants (§4.2.4)", p, []ablationPoint{
		{"LastRequest-register tag", policy.ThenFetch, nil},
		{"drain the queue", policy.ThenFetch, func(c *sim.Config) { c.Mem.FetchDrain = true }},
	})
}

// AblationDecryptLatency sweeps the AES pipeline latency under
// authen-then-commit. Counter-mode pads overlap the fetch, so moderate
// increases should be largely hidden (Table 1's MAX(fetch, decrypt)).
func AblationDecryptLatency(p Params) (*Ablation, error) {
	var pts []ablationPoint
	for _, ns := range []int{40, 80, 160, 320} {
		pts = append(pts, ablationPoint{fmt.Sprintf("decrypt %dns", ns), policy.ThenCommit,
			func(c *sim.Config) { c.Sec.DecryptLat = ns }})
	}
	return ablate("Ablation: decryption latency sensitivity (authen-then-commit)", p, pts)
}

// AblationMacLatency sweeps the hash-unit latency under authen-then-issue —
// the scheme most exposed to the verification gap.
func AblationMacLatency(p Params) (*Ablation, error) {
	var pts []ablationPoint
	for _, ns := range []int{37, 74, 148, 296} {
		pts = append(pts, ablationPoint{fmt.Sprintf("MAC %dns", ns), policy.ThenIssue,
			func(c *sim.Config) { c.Sec.MacLat = ns }})
	}
	return ablate("Ablation: MAC latency sensitivity (authen-then-issue)", p, pts)
}

// AblationCtrPrediction toggles [19]-style counter prediction: without it a
// counter-cache miss delays pad generation behind a metadata fetch.
func AblationCtrPrediction(p Params) (*Ablation, error) {
	return ablate("Ablation: counter prediction/precomputation ([19], authen-then-commit)", p, []ablationPoint{
		{"prediction on (reference)", policy.ThenCommit, nil},
		{"prediction off", policy.ThenCommit, func(c *sim.Config) { c.Sec.CtrPredict = false }},
	})
}

// AblationMacWidth sweeps the truncated MAC width: wider MACs cost only
// bus bandwidth in the flat scheme, so the effect should be small — the
// security/storage trade-off is nearly performance-free.
func AblationMacWidth(p Params) (*Ablation, error) {
	var pts []ablationPoint
	for _, b := range []int{4, 8, 16} {
		pts = append(pts, ablationPoint{fmt.Sprintf("%d-bit MAC", b*8), policy.ThenCommit,
			func(c *sim.Config) { c.Sec.MacB = b }})
	}
	return ablate("Ablation: truncated MAC width (authen-then-commit)", p, pts)
}

// AblationMacUnits scales the number of parallel verification engines under
// authen-then-issue. One unit (the paper's design) saturates on miss-dense
// kernels; extra units recover throughput until the bus becomes the limit.
func AblationMacUnits(p Params) (*Ablation, error) {
	var pts []ablationPoint
	for _, n := range []int{1, 2, 4} {
		pts = append(pts, ablationPoint{fmt.Sprintf("%d verification unit(s)", n), policy.ThenIssue,
			func(c *sim.Config) { c.Sec.MacUnits = n }})
	}
	return ablate("Ablation: parallel verification engines (authen-then-issue)", p, pts)
}

// AblationEncryptionMode reproduces the paper's Section 2 argument for
// counter mode: under CBC both decryption and verification serialize behind
// the fetch, so every scheme slows down — but the decrypt/verify gap nearly
// closes, collapsing the difference between authen-then-issue and
// authen-then-commit. Normalization is within-mode (CBC rows normalize
// against a CBC decrypt-only baseline): the ratio shows the scheme cost
// inside each mode, the absolute column shows the mode cost itself.
func AblationEncryptionMode(p Params) (*Ablation, error) {
	ctr := func(c *sim.Config) { c.Sec.Mode = secmem.ModeCTR }
	cbc := func(c *sim.Config) { c.Sec.Mode = secmem.ModeCBC }
	return ablate("Ablation: encryption mode (counter vs CBC, Table 1 / §5.2.2)", p, []ablationPoint{
		{"ctr, then-commit", policy.ThenCommit, ctr},
		{"ctr, then-issue", policy.ThenIssue, ctr},
		{"cbc, then-commit", policy.ThenCommit, cbc},
		{"cbc, then-issue", policy.ThenIssue, cbc},
	})
}

// AblationMSHR bounds outstanding misses: the paper-era machines held ~8
// miss registers; the model defaults to unbounded. Memory-level parallelism
// (and with it, the relative cost of every authentication gate) depends on
// this bound.
func AblationMSHR(p Params) (*Ablation, error) {
	var pts []ablationPoint
	for _, n := range []int{0, 16, 8, 4} {
		label := fmt.Sprintf("%d MSHRs", n)
		if n == 0 {
			label = "unbounded MSHRs (default)"
		}
		pts = append(pts, ablationPoint{label, policy.ThenCommit, func(c *sim.Config) { c.Mem.MSHRs = n }})
	}
	return ablate("Ablation: outstanding-miss bound (authen-then-commit)", p, pts)
}

// AblationPrefetch toggles the next-line L2 prefetcher under the baseline
// and under authen-then-fetch: prefetches help streaming kernels but also
// consume verification-engine throughput and are themselves gated.
func AblationPrefetch(p Params) (*Ablation, error) {
	off := func(c *sim.Config) { c.Mem.NextLinePrefetch = false }
	on := func(c *sim.Config) { c.Mem.NextLinePrefetch = true }
	return ablate("Ablation: next-line L2 prefetch", p, []ablationPoint{
		{"baseline, no prefetch", policy.Baseline, off},
		{"baseline, prefetch", policy.Baseline, on},
		{"then-fetch, no prefetch", policy.ThenFetch, off},
		{"then-fetch, prefetch", policy.ThenFetch, on},
	})
}

// AllAblations runs every sensitivity study.
func AllAblations(p Params) ([]*Ablation, error) {
	var out []*Ablation
	for _, f := range []func(Params) (*Ablation, error){
		AblationFetchVariants,
		AblationDecryptLatency,
		AblationMacLatency,
		AblationCtrPrediction,
		AblationMacWidth,
		AblationMacUnits,
		AblationMSHR,
		AblationEncryptionMode,
		AblationPrefetch,
	} {
		a, err := f(p)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
