package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/controller"
)

// TestSmoke runs every workload at a tiny size, traced (so both the
// untraced and the traced pass run), through the same output checks as a
// full run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := execute(options{workload: w.name, seed: 1, seconds: 1, trace: true, out: t.TempDir(), tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal("output checks failed (see stderr)")
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
		})
	}
}

// TestEndToEndMetricsMeasured checks that an untraced pass of every
// workload measures every end-to-end metric, nonzero.
func TestEndToEndMetricsMeasured(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := execute(options{workload: w.name, seed: 2, seconds: 1, out: t.TempDir(), tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal("output checks failed (see stderr)")
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %+v", m.Name, v)
				}
			}
		})
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and the
// workload list in step with BENCHMARK.json at the repository root.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %s/%s vs %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestReopenCheckTruncatedWAL drives the control workload's WAL check on
// a log that has rotated and been truncated by snapshots, as a full run's
// is: the plain reopen counts as one failed operation, the padded reopen
// must match the live state, and a different live state must fail.
func TestReopenCheckTruncatedWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	srv, err := controller.Open(controller.Config{
		Strategy: newControlVia(nil), WALDir: dir, WALSyncInterval: ctrlWALSync,
		WALSegmentBytes: 4 << 10, SnapshotEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	c := controller.NewClient(hs.URL)
	u := newCtrlUniverse(3, 64)
	for i := uint64(0); i < 300; i++ {
		p := u.pair(i)
		opt, scheme, err := c.ChooseWithRepair(u.src[p], u.dst[p], u.cands[p], ctrlRepairOffer)
		if err != nil {
			t.Fatal(err)
		}
		m, dur := u.report(i, p, opt)
		if err := c.ReportRepair(u.src[p], u.dst[p], opt, scheme, dur, m); err != nil {
			t.Fatal(err)
		}
	}
	hs.Close()
	if _, _, err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	state, err := srv.StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	opFailed, ok, detail := reopenCheck(dir, t.TempDir(), state, nil)
	t.Log(detail)
	if !opFailed || !ok {
		t.Fatalf("opFailed=%v ok=%v, want true true", opFailed, ok)
	}
	_, ok, detail = reopenCheck(dir, t.TempDir(), append([]byte{0}, state...), nil)
	if ok {
		t.Fatalf("a different live state passed: %s", detail)
	}
}
