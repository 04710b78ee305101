package repro_test

import (
	"os"
	"regexp"
	"testing"
)

// TestBenchGateSeriesInSync: the benchstat gate runs in CI and locally
// through `make bench-compare`; both must gate the same series, and
// that series must cover the incremental update path (E14).
func TestBenchGateSeriesInSync(t *testing.T) {
	read := func(path string, re *regexp.Regexp) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m := re.FindSubmatch(b)
		if m == nil {
			t.Fatalf("%s: no benchmark series found", path)
		}
		return string(m[1])
	}
	mk := read("Makefile", regexp.MustCompile(`(?m)^BENCH_SERIES := (\S+)$`))
	ci := read(".github/workflows/ci.yml", regexp.MustCompile(`(?m)^\s*SERIES='([^']+)'$`))
	if mk != ci {
		t.Fatalf("Makefile BENCH_SERIES %q differs from the CI benchstat SERIES %q", mk, ci)
	}
	if !regexp.MustCompile(`(^|\|)E14IncrementalUpdate($|\|)`).MatchString(mk) {
		t.Fatalf("gated series %q leave out E14IncrementalUpdate", mk)
	}
}
