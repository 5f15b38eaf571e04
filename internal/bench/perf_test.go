package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestPerfSuiteRecordsAndJSON(t *testing.T) {
	opt := Options{MaxModes: 8} // h2 + hubbard:2x2, smoke scale
	rep := PerfSuite(opt, 2)
	if rep.Workers != 2 {
		t.Fatalf("workers = %d", rep.Workers)
	}
	// 2 models within the cap × 3 methods.
	if len(rep.Records) != 6 {
		t.Fatalf("got %d records, want 6", len(rep.Records))
	}
	for _, r := range rep.Records {
		if r.PauliWeight <= 0 {
			t.Fatalf("%s/%s: bad weight %d", r.Model, r.Method, r.PauliWeight)
		}
		if r.SequentialMS <= 0 || r.ParallelMS <= 0 {
			t.Fatalf("%s/%s: missing timings %+v", r.Model, r.Method, r)
		}
		if !r.Identical {
			t.Fatalf("%s/%s: parallel mapping differs from sequential", r.Model, r.Method)
		}
	}

	var buf bytes.Buffer
	if err := WritePerfJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back PerfReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Records) != len(rep.Records) {
		t.Fatalf("round-trip lost records: %d vs %d", len(back.Records), len(rep.Records))
	}
	if !strings.Contains(buf.String(), "\"pauli_weight\"") {
		t.Fatal("JSON missing pauli_weight field")
	}

	var tab strings.Builder
	PrintPerf(&tab, rep)
	if !strings.Contains(tab.String(), "hatt") || !strings.Contains(tab.String(), "speedup") {
		t.Fatal("PrintPerf output incomplete")
	}
}

// TestPerfSweepSpeedupNeedsCores: with GOMAXPROCS below the worker
// count the sweep reports no seq-vs-par speedup, in the records, the
// JSON or the table; with enough cores it does.
func TestPerfSweepSpeedupNeedsCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opt := Options{MaxModes: 4} // h2 only
	rep := perfSweep(opt, 2)
	if rep.GOMAXPROCS != 1 || len(rep.Records) == 0 {
		t.Fatalf("gomaxprocs %d, %d records", rep.GOMAXPROCS, len(rep.Records))
	}
	for _, r := range rep.Records {
		if r.Speedup != 0 {
			t.Errorf("%s/%s: speedup %.2f reported with 1 core for 2 workers", r.Model, r.Method, r.Speedup)
		}
	}
	var buf bytes.Buffer
	if err := WritePerfJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "speedup") {
		t.Errorf("JSON carries a speedup:\n%s", buf.String())
	}
	var tab strings.Builder
	PrintPerf(&tab, rep)
	if strings.Contains(tab.String(), "x ") {
		t.Errorf("table prints a speedup:\n%s", tab.String())
	}

	for _, r := range perfSweep(opt, 1).Records {
		if r.Speedup <= 0 {
			t.Errorf("%s/%s: no speedup with 1 core for 1 worker", r.Model, r.Method)
		}
	}
}
