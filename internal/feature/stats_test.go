package feature_test

import (
	"testing"
	"testing/quick"

	"hyperq/internal/feature"
	"hyperq/internal/wstats"
)

// The Figure 8 tally over feature classes is kept by the workload registry
// (wstats.Registry.Features); these tests check its class semantics.

func TestEmptyStats(t *testing.T) {
	v := wstats.New(wstats.Config{}).Features()
	if v.Queries != 0 {
		t.Errorf("Queries = %d on an empty registry", v.Queries)
	}
	for class, pct := range v.ClassQueryPct {
		if pct != 0 {
			t.Errorf("%s query pct = %v on an empty registry", class, pct)
		}
	}
	for class, pct := range v.ClassPresencePct {
		if pct != 0 {
			t.Errorf("%s presence pct = %v on an empty registry", class, pct)
		}
	}
}

// Property: for any random feature subset, a class query percentage is 100%
// exactly when every observed query had a feature of the class.
func TestStatsClassConsistency(t *testing.T) {
	f := func(raw []uint8) bool {
		r := wstats.New(wstats.Config{})
		all := true
		for i, b := range raw {
			var s feature.Set
			s.Add(feature.ID(b % uint8(feature.Count)))
			r.Observe(uint64(i+1), "q", &wstats.Obs{DurNs: 1, Feats: s})
			if !s.HasClass(feature.ClassTranslation) {
				all = false
			}
		}
		if len(raw) == 0 {
			return true
		}
		v := r.Features()
		return !v.Approximate && (v.ClassQueryPct[feature.ClassTranslation.String()] == 100) == all
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
