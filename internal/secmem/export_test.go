package secmem

import "sync/atomic"

// CountSeals runs f with a fresh, empty sealed-image memo and returns how
// many FinishProtection calls f made and how many of them sealed their
// layout rather than copy it from the memo.
func CountSeals(f func()) (builds, sealed int) {
	var b, s atomic.Int64
	saved := sealedImages
	sealedImages = newMemo[imageKey, *sealedImage](imageCapB)
	testHookSeal = func(miss bool) {
		b.Add(1)
		if miss {
			s.Add(1)
		}
	}
	defer func() { sealedImages, testHookSeal = saved, nil }()
	f()
	return int(b.Load()), int(s.Load())
}
