package diffcheck

import (
	"reflect"
	"strings"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/policy"
)

// TestTamperSiteDefaultsToEntry pins that a tamper with no site and one at
// an explicit entry site are one check: they give the same result and
// address the same cache entry.
func TestTamperSiteDefaultsToEntry(t *testing.T) {
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := CheckSeed(3, Options{Policy: policy.ThenCommit, Tamper: true, Cache: store})
	if res.Site != SiteEntry || res.Cached {
		t.Fatalf("default tamper site = %q (cached %v), want %q from a fresh check", res.Site, res.Cached, SiteEntry)
	}
	explicit, _ := CheckSeed(3, Options{Policy: policy.ThenCommit, Tamper: true, TamperSite: SiteEntry, Cache: store})
	if !explicit.Cached {
		t.Fatal("explicit entry site missed the cache entry of the default site")
	}
	explicit.Cached = false
	fresh, _ := CheckSeed(3, Options{Policy: policy.ThenCommit, Tamper: true, TamperSite: SiteEntry})
	for _, r := range []Result{explicit, fresh} {
		if !reflect.DeepEqual(r, res) {
			t.Fatalf("explicit entry site diverges from default: %+v vs %+v", r, res)
		}
	}
}

// TestTamperSiteDataVerdicts sweeps data-site tamper across seeds and the
// lattice. Unlike the entry line, a data line is not guaranteed to be
// fetched, so the assertions are class-level: a verifying policy must never
// yield divergence (fetched-but-unflagged) or undetected, and the baseline
// is always undetected.
func TestTamperSiteDataVerdicts(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	sawFlagged := false
	for _, seed := range seeds {
		for _, pol := range policy.Lattice() {
			res, _ := CheckSeed(seed, Options{Policy: pol, Tamper: true, TamperSite: SiteData})
			if res.Site != SiteData {
				t.Fatalf("seed %d under %v: site %q, want data", seed, pol, res.Site)
			}
			switch {
			case !pol.Knobs().Authenticate:
				if res.Verdict != VerdictUndetected {
					t.Errorf("seed %d under %v (no auth): verdict %s, want undetected", seed, pol, res.Verdict)
				}
			default:
				switch res.Verdict {
				case VerdictOK: // line never fetched: nothing to assert
				case VerdictContained, VerdictDetected:
					sawFlagged = true
				default:
					t.Errorf("seed %d under %v: verdict %s (%s)", seed, pol, res.Verdict, res.Divergence)
				}
			}
		}
	}
	if !sawFlagged {
		t.Error("no seed ever fetched its tampered data line; test exercises nothing")
	}
}

func TestTamperSiteDataNoDataSegment(t *testing.T) {
	res := Check("_start:\n\thalt\n", Options{Policy: policy.ThenCommit, Tamper: true, TamperSite: SiteData})
	if res.Verdict != VerdictError {
		t.Fatalf("data-site tamper on data-less program: verdict %s, want error", res.Verdict)
	}
	if !strings.Contains(res.Divergence, "no data segment") {
		t.Fatalf("error does not name the cause: %q", res.Divergence)
	}
}

// TestTamperSiteCtrVerdicts: a rolled counter decrypts the entry line to
// garbage, so the invariants match the entry site: baseline undetected,
// issue/commit gates contained with zero commits, weaker gates at least
// detected (the default MacCoversCounter puts the counter under the MAC).
func TestTamperSiteCtrVerdicts(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for _, pol := range policy.Lattice() {
			res, _ := CheckSeed(seed, Options{Policy: pol, Tamper: true, TamperSite: SiteCtr})
			k := pol.Knobs()
			switch {
			case !k.Authenticate:
				if res.Verdict != VerdictUndetected {
					t.Errorf("seed %d ctr under %v: %s, want undetected", seed, pol, res.Verdict)
				}
			case k.GateIssue || k.GateCommit:
				if res.Verdict != VerdictContained {
					t.Errorf("seed %d ctr under %v: %s (%s), want contained", seed, pol, res.Verdict, res.Divergence)
				}
			default:
				if res.Verdict != VerdictContained && res.Verdict != VerdictDetected {
					t.Errorf("seed %d ctr under %v: %s (%s)", seed, pol, res.Verdict, res.Divergence)
				}
			}
		}
	}
	baseline, _ := CheckSeed(3, Options{Policy: policy.Baseline, Tamper: true, TamperSite: SiteCtr})
	if baseline.Site != SiteCtr {
		t.Errorf("site not recorded: %q", baseline.Site)
	}
}

// TestTamperSiteMetaVerdicts: MAC- and tree-node tamper leave the data
// intact, so the baseline run must be bit-identical to the untampered one
// (checkTamperMeta asserts full oracle equivalence before calling it
// undetected), and every authenticating policy must flag the entry line.
func TestTamperSiteMetaVerdicts(t *testing.T) {
	for _, site := range []TamperSite{SiteMac, SiteTree} {
		for _, seed := range []int64{3, 11} {
			for _, pol := range policy.Lattice() {
				res, _ := CheckSeed(seed, Options{Policy: pol, Tamper: true, TamperSite: site})
				if res.Site != site {
					t.Fatalf("seed %d: site %q, want %q", seed, res.Site, site)
				}
				k := pol.Knobs()
				switch {
				case !k.Authenticate:
					if res.Verdict != VerdictUndetected {
						t.Errorf("seed %d %s under %v: %s (%s), want undetected", seed, site, pol, res.Verdict, res.Divergence)
					}
				case k.GateIssue || k.GateCommit:
					if res.Verdict != VerdictContained {
						t.Errorf("seed %d %s under %v: %s (%s), want contained", seed, site, pol, res.Verdict, res.Divergence)
					}
					if res.Insts != 0 {
						t.Errorf("seed %d %s under %v: contained with %d commits", seed, site, pol, res.Insts)
					}
				default:
					if res.Verdict != VerdictContained && res.Verdict != VerdictDetected {
						t.Errorf("seed %d %s under %v: %s (%s)", seed, site, pol, res.Verdict, res.Divergence)
					}
				}
			}
		}
	}
}

func TestSitesListsAll(t *testing.T) {
	want := map[TamperSite]bool{SiteEntry: true, SiteData: true, SiteMac: true, SiteCtr: true, SiteTree: true}
	got := Sites()
	if len(got) != len(want) {
		t.Fatalf("Sites() = %v", got)
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unknown site %q", s)
		}
	}
}

func TestTamperSiteReproRoundTrip(t *testing.T) {
	// Entry-site recordings must keep encoding the site as "" so the
	// pre-site corpus stays byte-identical under replay.
	entry, src := CheckSeed(11, Options{Policy: policy.ThenCommit, Tamper: true})
	if r := NewRepro(entry, src, ""); r.TamperSite != "" {
		t.Fatalf("entry-site repro records tamper_site %q, want empty", r.TamperSite)
	}

	for _, site := range Sites()[1:] { // every non-default site round-trips
		res, src := CheckSeed(11, Options{Policy: policy.ThenCommit, Tamper: true, TamperSite: site})
		r := NewRepro(res, src, string(site)+"-site round-trip")
		if r.TamperSite != string(site) {
			t.Fatalf("%s-site repro records tamper_site %q", site, r.TamperSite)
		}
		dec, err := DecodeRepro(r.Encode())
		if err != nil {
			t.Fatalf("%s: decode: %v", site, err)
		}
		if _, err := dec.Replay(); err != nil {
			t.Fatalf("%s: replay: %v", site, err)
		}
	}
}
