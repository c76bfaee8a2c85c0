package pipeline

// Predictor bundles the front-end control-flow predictors: a bimodal 2-bit
// conditional-branch predictor, a branch target buffer for indirect jumps,
// and a return address stack.
type Predictor struct {
	bimodal []uint8 // 2-bit saturating counters
	btbTags []uint64
	btbTgts []uint64
	btbWays int
	btbSets int
	ras     []uint64
	rasTop  int

	condLookups uint64
	condHits    uint64
}

// PredictorConfig sizes the predictor structures.
type PredictorConfig struct {
	BimodalEntries int
	BTBEntries     int
	BTBWays        int
	RASEntries     int
}

// DefaultPredictorConfig returns a predictor typical of the paper's era.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{BimodalEntries: 2048, BTBEntries: 512, BTBWays: 4, RASEntries: 8}
}

// NewPredictor builds a predictor. Entry counts are rounded up to powers of
// two.
func NewPredictor(cfg PredictorConfig) *Predictor {
	p := new(Predictor)
	p.reset(cfg)
	return p
}

// reset returns the predictor to the state NewPredictor leaves for cfg,
// keeping its tables' storage when their sizes are unchanged.
func (p *Predictor) reset(cfg PredictorConfig) {
	pow2 := func(n int) int {
		p := 1
		for p < n {
			p <<= 1
		}
		return p
	}
	bimodal := pow2(max(cfg.BimodalEntries, 2))
	btb := pow2(max(cfg.BTBEntries, cfg.BTBWays))
	ways := max(cfg.BTBWays, 1)
	*p = Predictor{
		bimodal: resize(p.bimodal, bimodal),
		btbTags: resize(p.btbTags, btb),
		btbTgts: resize(p.btbTgts, btb),
		btbWays: ways,
		btbSets: btb / ways,
		ras:     resize(p.ras, max(cfg.RASEntries, 1)),
	}
	for i := range p.bimodal {
		p.bimodal[i] = 1 // weakly not-taken
	}
	for i := range p.btbTags {
		p.btbTags[i] = ^uint64(0)
	}
	clear(p.btbTgts)
	clear(p.ras)
}

// resize returns b with length n, reusing its storage if it can; the
// elements are not cleared.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

func (p *Predictor) bimodalIdx(pc uint64) int {
	return int((pc >> 2) & uint64(len(p.bimodal)-1))
}

// PredictCond predicts a conditional branch at pc.
func (p *Predictor) PredictCond(pc uint64) bool {
	p.condLookups++
	return p.bimodal[p.bimodalIdx(pc)] >= 2
}

// UpdateCond trains the bimodal counter with the resolved outcome and
// records accuracy against the prediction made for this instance.
func (p *Predictor) UpdateCond(pc uint64, predicted, taken bool) {
	if predicted == taken {
		p.condHits++
	}
	i := p.bimodalIdx(pc)
	if taken {
		if p.bimodal[i] < 3 {
			p.bimodal[i]++
		}
	} else if p.bimodal[i] > 0 {
		p.bimodal[i]--
	}
}

// LookupBTB returns the predicted target of an indirect jump at pc.
func (p *Predictor) LookupBTB(pc uint64) (uint64, bool) {
	set := int((pc >> 2) % uint64(p.btbSets))
	for w := 0; w < p.btbWays; w++ {
		i := set*p.btbWays + w
		if p.btbTags[i] == pc {
			return p.btbTgts[i], true
		}
	}
	return 0, false
}

// UpdateBTB installs or refreshes pc -> target (simple round-robin-by-hash
// way choice; BTBs of this era were not LRU-precise).
func (p *Predictor) UpdateBTB(pc, target uint64) {
	set := int((pc >> 2) % uint64(p.btbSets))
	victim := set*p.btbWays + 0
	for w := 0; w < p.btbWays; w++ {
		i := set*p.btbWays + w
		if p.btbTags[i] == pc || p.btbTags[i] == ^uint64(0) {
			victim = i
			break
		}
		if (pc>>4+uint64(w))%uint64(p.btbWays) == 0 {
			victim = i
		}
	}
	p.btbTags[victim] = pc
	p.btbTgts[victim] = target
}

// PushRAS records a return address at a call.
func (p *Predictor) PushRAS(addr uint64) {
	p.ras[p.rasTop%len(p.ras)] = addr
	p.rasTop++
}

// PopRAS predicts a return target.
func (p *Predictor) PopRAS() (uint64, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}

// CondAccuracy returns conditional-branch prediction accuracy.
func (p *Predictor) CondAccuracy() float64 {
	if p.condLookups == 0 {
		return 0
	}
	return float64(p.condHits) / float64(p.condLookups)
}
