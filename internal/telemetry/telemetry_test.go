package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRunReportGolden pins the deterministic text rendering of the run
// report against one golden file per job log (regenerate with go test
// -run Golden -update), and the exact per-job quantiles.
func TestRunReportGolden(t *testing.T) {
	for _, tc := range []struct {
		golden   string
		elapsed  time.Duration
		workers  int
		jobs     []JobRecord
		p50, p95 float64
	}{
		{
			golden: "report.golden", elapsed: 1500 * time.Millisecond, workers: 2,
			jobs: []JobRecord{
				{Tag: "fft/smp-4x1", Seconds: 0.3, SimCycles: 1_500_000},
				{Tag: "ear/mp-1x4", Seconds: 0.6, SimCycles: 1_500_000},
				{Tag: "fft/cmp-4x1", Seconds: 0.02, SimCycles: 2_000_000, Cached: true},
				{Tag: "ear/cmp-4x1", Seconds: 0.04, SimCycles: 0, Failed: true},
			},
			p50: 0.04, p95: 0.6,
		},
		{
			// A histogram on a 1-2.5-5 bucket ladder files all three in
			// its 2.5 s bucket and reports p50 = p95 = 2.5 s.
			golden: "report-1.1s.golden", elapsed: 3400 * time.Millisecond, workers: 1,
			jobs: []JobRecord{
				{Tag: "mp3d/shared-l1", Seconds: 1.1, SimCycles: 4_400_000},
				{Tag: "mp3d/shared-l2", Seconds: 1.1, SimCycles: 4_000_000},
				{Tag: "mp3d/shared-mem", Seconds: 1.1, SimCycles: 3_600_000},
			},
			p50: 1.1, p95: 1.1,
		},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			s := New()
			s.Runner.SetWorkers(tc.workers)
			for _, j := range tc.jobs {
				s.Runner.RecordJob(j)
			}
			report := s.BuildReport(tc.elapsed)
			if report.JobWallP50 != tc.p50 || report.JobWallP95 != tc.p95 {
				t.Errorf("p50/p95 = %g/%g, want %g/%g", report.JobWallP50, report.JobWallP95, tc.p50, tc.p95)
			}
			var buf bytes.Buffer
			if err := report.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
			}

			// The JSON rendering must round-trip the same numbers.
			var js bytes.Buffer
			if err := report.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			var back RunReport
			if err := json.Unmarshal(js.Bytes(), &back); err != nil {
				t.Fatal(err)
			}
			if back.JobsTotal != len(tc.jobs) || back.JobWallP50 != tc.p50 || len(back.Jobs) != len(tc.jobs) {
				t.Errorf("JSON round-trip mismatch: %+v", back)
			}
		})
	}
}
