package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// tiny shrinks every script to a few seconds of work.
var tiny = sizes{
	Corpus: 8, Queries: 9,
	Resident: 6, Pool: 6, Depth: 1, Pairs: 2,
	Watched: 3, Streams: 10, Pushes: 30,
}

// TestSmoke runs each workload shrunk against a real ctdbd, untraced
// and traced, and checks that every metric is reported with its unit
// and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots ctdbd")
	}
	bin := filepath.Join(t.TempDir(), "ctdbd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ctdbd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ctdbd: %v\n%s", err, out)
	}
	e2eUnits := map[string]string{
		"setup_s": "s", "ops_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
		"rss_peak_mb": "MB", "disk_mb": "MB",
	}
	layerUnits := map[string]string{}
	for _, pl := range perLayer {
		layerUnits[pl[0]] = pl[1]
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			start := time.Now()
			res, err := run(w, 7, tiny, traced, bin, filepath.Join(t.TempDir(), "work"))
			t.Logf("%s traced=%v: %v", w, traced, time.Since(start))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := e2eUnits
			if traced {
				want = layerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w, traced, name, m.Unit, unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}
