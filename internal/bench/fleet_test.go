package bench

import "testing"

// TestRunFleetSmall runs a miniature sweep of the fleet A/B: every
// tenant mix must complete cleanly (a recorded zero failures) with
// every tenant's slice counter visibly nonzero.
func TestRunFleetSmall(t *testing.T) {
	for _, mix := range []string{"mixed", "pipes", "sock"} {
		rep, err := runFleet(Config{Scale: 1}, mix, []int{4})
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if len(rep.Comparisons) != 1 {
			t.Fatalf("%s: %d comparisons, want 1", mix, len(rep.Comparisons))
		}
		c := rep.Comparisons[0]
		for _, arm := range []ArmReport{c.A, c.B} {
			if f, ok := arm.Metrics["failed"]; !ok || f.Max != 0 {
				t.Errorf("%s %s: failed=%+v (recorded %v)", mix, arm.Name, f, ok)
			}
			if tput := arm.Metrics["tenants_per_sec"].Min; tput <= 0 {
				t.Errorf("%s %s: throughput %v", mix, arm.Name, tput)
			}
			if l := arm.Latency; l == nil || l.P50 <= 0 || l.P999 < l.P50 {
				t.Errorf("%s %s: latency %+v", mix, arm.Name, l)
			}
			if s := arm.Metrics["min_tenant_slices"].Min; s <= 0 {
				t.Errorf("%s %s: min tenant slices %v, want > 0", mix, arm.Name, s)
			}
		}
		if failed := rep.Failed(); len(failed) > 0 {
			t.Errorf("%s: failed checks %+v", mix, failed)
		}
		if rep.Format() == "" {
			t.Errorf("%s: empty format", mix)
		}
	}
}
