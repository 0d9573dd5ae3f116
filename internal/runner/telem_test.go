package runner

// Job-log tests: one record per finished job across cached, simulated
// and failed jobs, output-neutrality of an attached log, and the
// progress line format.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/telemetry"
	"cmpsim/internal/workload"
)

// TestPoolJobLog runs the quick grid twice against one cache, serially
// and on four workers: the log holds one record per job and pass, the
// second pass's all cached, each with a wall clock and the cycles of the
// result it returned. A job whose workload cannot be built logs exactly
// one failed record.
func TestPoolJobLog(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cache, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			log := telemetry.New().Runner
			pool := &Pool{Workers: workers, Cache: cache, Telem: log}
			jobs := smallGrid()
			cycles := map[string]uint64{}
			for pass := 0; pass < 2; pass++ {
				results := pool.Run(jobs)
				if err := FirstErr(results); err != nil {
					t.Fatal(err)
				}
				for i, r := range results {
					if pass == 1 && cycles[jobs[i].Tag] != r.Res.Cycles {
						t.Errorf("%s: cached cycles %d, simulated %d", jobs[i].Tag, r.Res.Cycles, cycles[jobs[i].Tag])
					}
					cycles[jobs[i].Tag] = r.Res.Cycles
				}
			}
			recs := log.Jobs()
			if len(recs) != 2*len(jobs) {
				t.Fatalf("job records = %d, want %d", len(recs), 2*len(jobs))
			}
			var cached int
			for _, r := range recs {
				if r.Cached {
					cached++
				}
				if r.Failed || r.Seconds <= 0 || r.SimCycles != cycles[r.Tag] {
					t.Errorf("record %+v: want unfailed, seconds > 0, %d cycles", r, cycles[r.Tag])
				}
			}
			if cached != len(jobs) {
				t.Errorf("cached job records = %d, want %d", cached, len(jobs))
			}
		})
	}

	log := telemetry.New().Runner
	broken := Job{
		Workload: func() (workload.Workload, error) { return nil, errors.New("boom") },
		Arch:     core.SharedL1,
		Model:    core.ModelMipsy,
		Cfg:      memsys.DefaultConfig(),
		Tag:      "failing",
	}
	(&Pool{Telem: log}).Run([]Job{broken})
	if recs := log.Jobs(); len(recs) != 1 || !recs[0].Failed || recs[0].Tag != "failing" {
		t.Errorf("failing job logged %+v, want one failed record", recs)
	}
}

// TestTelemetryDoesNotChangeResults pins the job log's contract: a run
// with a log attached returns bit-identical results to a bare one.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	bare := (&Pool{Workers: 2}).Run(smallGrid())
	logged := (&Pool{Workers: 2, Telem: telemetry.New().Runner}).Run(smallGrid())

	if len(bare) != len(logged) {
		t.Fatalf("result counts differ: %d vs %d", len(bare), len(logged))
	}
	for i := range bare {
		if !reflect.DeepEqual(bare[i].Res, logged[i].Res) {
			t.Errorf("job %d: the job log changed the simulation result", i)
		}
	}
}

// TestProgressLineFormat pins the upgraded progress line: per-job wall
// clock plus campaign elapsed time, completion rate and ETA.
func TestProgressLineFormat(t *testing.T) {
	var buf bytes.Buffer
	pool := &Pool{Workers: 2, Progress: &buf}
	if err := FirstErr(pool.Run(smallGrid()[:2])); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("progress lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	re := regexp.MustCompile(`^\[\d/2\] \S+ [0-9.]+m?s \| [0-9.]+m?s elapsed, \d+\.\d jobs/s, eta \S+$`)
	for _, line := range lines {
		if !re.Match(line) {
			t.Errorf("progress line %q does not match %v", line, re)
		}
	}
}
