package contract

import (
	"reflect"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
)

// TestCheckCacheBitIdentity pins the cache determinism contract for the
// two-run checker: a cached result equals the fresh one field for field
// (modulo the Cached marker), including the nested contract and the recorded
// secret images.
func TestCheckCacheBitIdentity(t *testing.T) {
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pols := []policy.ControlPoint{policy.Baseline, policy.ThenCommit, policy.CommitPlusObfuscation}
	seeds := []int64{1, 2, 3}
	for _, seed := range seeds {
		for _, pt := range pols {
			opt := Options{Policy: pt, Cache: store}
			fresh, _ := CheckSeed(seed, opt)
			if fresh.Cached {
				t.Fatalf("seed %d under %v: first check claims cached", seed, pt)
			}
			cached, _ := CheckSeed(seed, opt)
			if !cached.Cached {
				t.Fatalf("seed %d under %v: second check missed the cache", seed, pt)
			}
			cached.Cached = false
			if !reflect.DeepEqual(fresh, cached) {
				t.Fatalf("seed %d under %v: cached result diverged:\nfresh:  %+v\ncached: %+v",
					seed, pt, fresh, cached)
			}
		}
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}
	want := int64(len(seeds) * len(pols))
	if store.Hits() != want || store.Puts() != want {
		t.Fatalf("cache hits=%d puts=%d, want %d each", store.Hits(), store.Puts(), want)
	}
}

// TestCacheKeySeparatesOptions pins that result-relevant options split cache
// entries: the same (program, policy) under a different seed or explicit
// secret pair must not alias.
func TestCacheKeySeparatesOptions(t *testing.T) {
	src := "halt"
	base := Options{Policy: policy.Baseline, Seed: 1}
	k1, ok1 := cacheKey(src, base)
	alt := base
	alt.Seed = 2
	k2, ok2 := cacheKey(src, alt)
	if !ok1 || !ok2 {
		t.Fatal("cacheKey failed to serialize plain options")
	}
	if k1.ID() == k2.ID() {
		t.Fatal("seed change did not change the cache address")
	}
	if k1.Model != diffcheck.ModelFingerprint(base.Policy) {
		t.Fatalf("cache key carries model %q, want the policy's model fingerprint", k1.Model)
	}
	withSecrets := base
	withSecrets.SecretA, withSecrets.SecretB = []byte{1}, []byte{2}
	k3, _ := cacheKey(src, withSecrets)
	if k3.ID() == k1.ID() {
		t.Fatal("explicit secret images did not change the cache address")
	}
	diffPolicy := base
	diffPolicy.Policy = policy.ThenCommit
	k4, _ := cacheKey(src, diffPolicy)
	if k4.ID() == k1.ID() {
		t.Fatal("policy change did not change the cache address")
	}
}
