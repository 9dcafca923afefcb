package bench

import (
	"testing"

	"doppio/internal/fstrace"
	"doppio/internal/vfs"
)

// fsCacheReport runs the cache A/B and returns the named comparison
// and the cache counters the detail recorded for it.
func fsCacheReport(t *testing.T, tp fstrace.GenerateParams, name string) (*Report, Comparison, vfs.CacheStats) {
	t.Helper()
	rep, err := runFSCache(Config{Scale: 1}, tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Comparisons {
		if c.Name == name {
			return rep, c, rep.Detail[name+"_cache"].(vfs.CacheStats)
		}
	}
	t.Fatalf("no %q comparison in %+v", name, rep.Comparisons)
	return nil, Comparison{}, vfs.CacheStats{}
}

// requireCheck fails the test unless the report holds the named check
// and it passed.
func requireCheck(t *testing.T, rep *Report, name string) {
	t.Helper()
	for _, ck := range rep.Checks {
		if ck.Name == name {
			if !ck.Pass {
				t.Fatalf("check %q failed: %s", name, ck.Detail)
			}
			return
		}
	}
	t.Fatalf("no check %q in %+v", name, rep.Checks)
}

func TestFSCacheWarmHalvesBackendOps(t *testing.T) {
	rep, c, cache := fsCacheReport(t,
		fstrace.GenerateParams{Ops: 150, UniqueFiles: 40, BytesRead: 120_000, BytesWritten: 4_000}, "replay")
	// The uncached pass and the cached cold pass, then the second
	// uncached pass and the warm pass, produced identical op logs.
	requireCheck(t, rep, "replay: identical output")
	okOps := []Dist{c.A.Metrics["cold_ok_ops"], c.A.Metrics["ok_ops"], c.B.Metrics["cold_ok_ops"], c.B.Metrics["ok_ops"]}
	for _, d := range okOps {
		if d != okOps[0] || d.Min == 0 {
			t.Fatalf("ok-op counts diverge (uncached cold/second, cached cold/warm): %+v", okOps)
		}
	}
	warm, cold, bare := c.B.Metrics["backend_ops"].Max, c.B.Metrics["cold_backend_ops"].Min, c.A.Metrics["backend_ops"].Min
	if warm*2 > bare {
		t.Errorf("warm backend ops = %v, want <= half of uncached %v", warm, bare)
	}
	if warm > cold {
		t.Errorf("warm pass (%v ops) should not exceed cold pass (%v ops)", warm, cold)
	}
	if cache.Hits == 0 && cache.StatHits == 0 {
		t.Errorf("cache reported no hits: %+v", cache)
	}
}

func TestClassloadFSCache(t *testing.T) {
	rep, c, cache := fsCacheReport(t,
		fstrace.GenerateParams{Ops: 50, UniqueFiles: 20, BytesRead: 20_000, BytesWritten: 1_000}, "classload")
	if c.B.Metrics["classes"].Min == 0 {
		t.Fatal("no classes compiled")
	}
	// Every load on both arms succeeded and came back byte-exact.
	for _, arm := range []ArmReport{c.A, c.B} {
		if f, ok := arm.Metrics["failed"]; !ok || f.Max != 0 {
			t.Fatalf("%s arm: %v class loads failed or differed (recorded: %v)", arm.Name, f.Max, ok)
		}
	}
	requireCheck(t, rep, "classload: every class loaded byte-exact")
	// Warm loads are served almost entirely by the cache: the empty
	// /cp1 probes hit negative stat entries and the /cp2 reads hit the
	// page cache.
	if warm, bare := c.B.Metrics["backend_ops"].Max, c.A.Metrics["backend_ops"].Min; warm*2 > bare {
		t.Errorf("warm class-load ops = %v, want <= half of uncached %v", warm, bare)
	}
	if cache.NegativeHits == 0 {
		t.Errorf("classpath probing produced no negative-stat hits: %+v", cache)
	}
}
