package sim

import (
	"reflect"
	"testing"

	"authpoint/internal/policy"
)

// paperPoints are the paper's seven evaluated control points in
// presentation order: the baseline plus the six gated points.
var paperPoints = []policy.ControlPoint{
	policy.Baseline, policy.ThenIssue, policy.ThenWrite, policy.ThenCommit,
	policy.ThenFetch, policy.CommitPlusFetch, policy.CommitPlusObfuscation,
}

// legacyApply is the pre-refactor applyScheme switch, kept verbatim as the
// reference: the policy layer must translate each of the paper's seven
// points into exactly these component knobs.
func legacyApply(c *Config) {
	c.Sec.Authenticate = true
	c.Sec.Remap = false
	c.Pipeline.GateIssue = false
	c.Pipeline.GateCommit = false
	c.Pipeline.StoreWaitAuth = false
	c.Mem.GateFetch = false
	c.Mem.UseAtAuth = false
	switch c.Policy {
	case policy.Baseline:
		c.Sec.Authenticate = false
	case policy.ThenIssue:
		c.Pipeline.GateIssue = true
		c.Mem.UseAtAuth = true
	case policy.ThenWrite:
		c.Pipeline.StoreWaitAuth = true
	case policy.ThenCommit:
		c.Pipeline.GateCommit = true
	case policy.ThenFetch:
		c.Mem.GateFetch = true
	case policy.CommitPlusFetch:
		c.Pipeline.GateCommit = true
		c.Mem.GateFetch = true
	case policy.CommitPlusObfuscation:
		c.Pipeline.GateCommit = true
		c.Sec.Remap = true
	}
}

// TestPolicyKnobEquivalence pins that applyPolicy reproduces the
// pre-refactor knob settings for the paper's seven points, bit for bit —
// the config-level half of the cycle-identical equivalence guarantee.
func TestPolicyKnobEquivalence(t *testing.T) {
	for _, p := range paperPoints {
		want := DefaultConfig()
		want.Policy = p
		legacyApply(&want)

		got := DefaultConfig()
		got.Policy = p
		got.applyPolicy()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: config diverges from legacy applyScheme:\ngot  %+v\nwant %+v", p, got, want)
		}
	}
}

// TestConfigControlPointResolution pins that the zero config is the
// baseline and that a denormalized Policy resolves to its normalized point.
func TestConfigControlPointResolution(t *testing.T) {
	var cfg Config
	if got := cfg.ControlPoint(); got != policy.Baseline {
		t.Errorf("zero config resolves to %v", got)
	}
	// A denormalized literal (gate without Authenticate) resolves to the
	// normalized point.
	cfg.Policy = policy.ControlPoint{GateCommit: true}
	if got := cfg.ControlPoint(); got != policy.ThenCommit {
		t.Errorf("denormalized literal resolves to %v", got)
	}
}
