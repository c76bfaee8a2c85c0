package diffcheck

import (
	"crypto/sha256"
	"reflect"
	"sync"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// modelKey is a cache key that differs from others only in its model
// fingerprint.
func modelKey(cfg sim.Config, c canaryRun) string {
	return campaign.Key{Check: CheckSchema, Kind: "fuzz", ProgDigest: "aa", Policy: "baseline",
		Model: modelDigest(cfg, c)}.ID()
}

// TestModelFingerprintConfigSensitivity walks every leaf field of
// sim.DefaultConfig() and pins that perturbing it changes the cache key.
func TestModelFingerprintConfigSensitivity(t *testing.T) {
	canary := runCanary(policy.Baseline)
	cfg := sim.DefaultConfig()
	base := modelKey(cfg, canary)
	leaves := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		saved := reflect.New(v.Type()).Elem()
		saved.Set(v)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		default:
			t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
		}
		leaves++
		if modelKey(cfg, canary) == base {
			t.Errorf("perturbing %s left the cache key unchanged", path)
		}
		v.Set(saved)
	}
	walk(reflect.ValueOf(&cfg).Elem(), "Config")
	if modelKey(cfg, canary) != base {
		t.Fatal("the walk did not restore the config")
	}
	if leaves < 50 {
		t.Fatalf("walked %d leaf fields of sim.Config, expected more", leaves)
	}
}

// TestModelFingerprintCanarySensitivity pins that a different canary
// result — a timing change made in code, say — changes the cache key.
func TestModelFingerprintCanarySensitivity(t *testing.T) {
	cfg := sim.DefaultConfig()
	c := runCanary(policy.ThenCommit)
	if c.Reason != "halt" || c.Cycles == 0 {
		t.Fatalf("canary run %+v, want a halt", c)
	}
	base := modelKey(cfg, c)
	other := []canaryRun{c, c, c, c}
	other[0].Reason = "watchdog"
	other[1].Cycles++
	other[2].Insts++
	other[3].Arch[31] ^= 1
	for _, o := range other {
		if modelKey(cfg, o) == base {
			t.Errorf("canary result %+v left the cache key unchanged", o)
		}
	}
}

// TestCacheKeyOptionText pins the option text of a check's cache key, so
// result stores written by earlier builds keep hitting.
func TestCacheKeyOptionText(t *testing.T) {
	k := cacheKey(sha256.Sum256([]byte("halt")), Options{WatchdogCycles: 500}.withDefaults())
	if want := "max_oracle=2000000 watchdog=500"; k.Options != want {
		t.Fatalf("cache key options %q, want %q", k.Options, want)
	}
}

// TestModelFingerprint pins that the memoized fingerprint is the digest the
// tests above perturb, taken under the key's own (normalized) policy and
// carried by the cache key, and that the canary tells policies of different
// timing apart.
func TestModelFingerprint(t *testing.T) {
	for _, pt := range []policy.ControlPoint{policy.Baseline, policy.ThenCommit} {
		want := modelDigest(sim.DefaultConfig(), runCanary(pt))
		if got := ModelFingerprint(pt); got != want {
			t.Fatalf("ModelFingerprint(%v) = %s, want %s", pt, got, want)
		}
		if k := cacheKey(sha256.Sum256([]byte("halt")), Options{Policy: pt}.withDefaults()); k.Model != want {
			t.Fatalf("cache key under %v carries model %q, want %s", pt, k.Model, want)
		}
	}
	if runCanary(policy.Baseline).Cycles == runCanary(policy.ThenCommit).Cycles {
		t.Fatal("canary cycles equal under the baseline and authen-then-commit")
	}
	unnormalized := policy.ControlPoint{GateCommit: true}
	if ModelFingerprint(unnormalized) != ModelFingerprint(unnormalized.Normalize()) {
		t.Fatal("fingerprint depends on policy normalization")
	}
	// Sweep workers ask for it at once.
	pols, err := policy.ParseSet("ci")
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]string, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, pt := range pols {
				got[w] = append(got[w], ModelFingerprint(pt))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], got[0]) {
			t.Fatalf("worker %d saw other fingerprints than worker 0", w)
		}
	}
}
