package main

import (
	"testing"

	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
)

// TestReproNamesDistinct: findings for one (seed, policy) at different
// tamper sites, and the untampered one, write distinct .repro files, so
// campaigns over several sites can share one -out directory. Entry and data
// findings keep their historical names.
func TestReproNamesDistinct(t *testing.T) {
	base := diffcheck.Result{Seed: 7, Policy: policy.ThenCommit}
	names := map[string]diffcheck.TamperSite{reproName(base): "untampered"}
	for _, site := range diffcheck.Sites() {
		res := base
		res.Tamper, res.Site = true, site
		name := reproName(res)
		if prev, dup := names[name]; dup {
			t.Fatalf("sites %s and %s both write %s", prev, site, name)
		}
		names[name] = site
	}
	for name, site := range map[string]diffcheck.TamperSite{
		"seed7-authen-then-commit-tamper.repro":      diffcheck.SiteEntry,
		"seed7-authen-then-commit-tamper-data.repro": diffcheck.SiteData,
		"seed7-authen-then-commit-tamper-mac.repro":  diffcheck.SiteMac,
	} {
		if names[name] != site {
			t.Errorf("%s: written for %q, want %q", name, names[name], site)
		}
	}
}
