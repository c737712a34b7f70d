package main

import "testing"

// TestPlantedBugFails proves the correctness gate checks something: a
// sweep of the planted brokenfence mechanism (dirtybit with its commit
// fence deleted) must drive the failure fraction above 0, while the
// same sweep of dirtybit itself stays at 0.
func TestPlantedBugFails(t *testing.T) {
	for _, tc := range []struct {
		mech     string
		wantFail bool
	}{
		{"dirtybit", false},
		{"brokenfence", true},
	} {
		var ta tally
		crashPass(crashConfigs(pinnedSeed, []string{tc.mech}), &ta)
		frac := float64(ta.failed) / float64(ta.attempted)
		if (frac > 0) != tc.wantFail {
			t.Errorf("%s: failed_frac = %d/%d, want above 0: %v", tc.mech, ta.failed, ta.attempted, tc.wantFail)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
