package main

import (
	"encoding/json"
	"math"
	"testing"
)

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	f, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDeclared(f); err != nil {
		t.Fatal(err)
	}
}

// quickEnv is the smoke-test scale of one workload with a single set-up.
func quickEnv(w *workloadSpec, seed uint64) *env {
	o := &options{seed: seed, seconds: 10, quick: true}
	return &env{seed: seed, quick: true, cycles: windowCycles(w, o), setups: 1}
}

// TestQuickSuite runs every workload twice at smoke-test scale, once bare
// and once through the timing decorator. The second run must do exactly
// the simulated work of the first (same digest, same sim_* values), which
// covers both run-to-run determinism and the decorator's transparency; on
// the skip-dominated http_linux rig the decorator must also leave the
// kernel's skipping intact, which it would not if it hid sim.Sleeper.
func TestQuickSuite(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			e := quickEnv(w, 0)
			base, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			base.workload = w.name
			for _, bad := range resultChecks(base, e) {
				t.Error(bad)
			}
			if base.failed != 0 {
				t.Errorf("failed operations: %v", base.failNotes)
			}

			te := *e
			te.ht = newHostTracer()
			tr, err := w.run(&te)
			if err != nil {
				t.Fatal(err)
			}
			tr.workload = w.name
			if tr.digest != base.digest {
				t.Errorf("traced digest %s, untraced %s", tr.digest, base.digest)
			}
			a, b := endToEndValues(base), endToEndValues(tr)
			for _, s := range endToEnd {
				if len(s.Name) > 4 && s.Name[:4] == "sim_" && a[s.Name] != b[s.Name] {
					t.Errorf("%s: %v untraced, %v traced", s.Name, a[s.Name], b[s.Name])
				}
			}
			if d := math.Abs(tr.win.skippedPct() - base.win.skippedPct()); d > 1 {
				t.Errorf("skipped %.2f %% bare, %.2f %% decorated: the decorator changed the kernel's skipping", base.win.skippedPct(), tr.win.skippedPct())
			}
			if w.name == "http_linux" && base.win.skippedPct() < 90 {
				t.Errorf("http_linux skipped only %.1f %% of cycles", base.win.skippedPct())
			}
			if te.ht.block.n == 0 {
				t.Error("the tracer sampled no iteration")
			}

			// Both result lines carry exactly the declared names.
			layer, _, _ := layerValues(base, tr, te.ht, map[string]float64{})
			for _, rep := range []*report{
				{w: w, base: base, e2e: a},
				{w: w, base: base, traced: tr, e2e: a, layer: layer},
			} {
				raw, err := json.Marshal(rep.line())
				if err != nil {
					t.Fatal(err)
				}
				var back resultLine
				if err := json.Unmarshal(raw, &back); err != nil {
					t.Fatal(err)
				}
				want := untracedNames()
				if rep.traced != nil {
					want = tracedNames()
				}
				if len(back.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, want %d", len(back.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := back.Metrics[s.Name]
					if !ok || m.Unit != s.Unit || !nameRE.MatchString(s.Name) {
						t.Errorf("metric %s: present=%t unit=%q want %q", s.Name, ok, m.Unit, s.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s is %v", s.Name, m.Value)
					}
				}
				if back.Attempted < 1 || back.Failed != 0 {
					t.Errorf("attempted %d failed %d", back.Attempted, back.Failed)
				}
			}
		})
	}
}

func TestSeedChangesChurnDigest(t *testing.T) {
	w := findWorkload("churn_plateau")
	var digests []string
	for _, seed := range []uint64{0, 1} {
		r, err := w.run(quickEnv(w, seed))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, r.digest)
	}
	if digests[0] == digests[1] {
		t.Errorf("seeds 0 and 1 gave the same digest %s", digests[0])
	}
}

func TestLayerDriversReportEveryDriverMetric(t *testing.T) {
	got := runLayerDrivers(200)
	for _, n := range []string{
		"sim.timer_ns_per_event", "sim.idle_scan_ns_per_skip", "hostif.post_fetch_ns_per_cmd", "fpc.drive_ns_per_cycle",
		"datapath.cuckoo_lookup_ns", "datapath.cuckoo_insert_delete_ns", "tcpproc.process_ns_per_event", "flow.accumulate_merge_ns",
		"timerq.arm_ns", "timerq.expire_ns_per_timer", "wire.marshal_ns", "wire.unmarshal_ns", "wire.checksum_ns_per_kb", "wire.pool_get_put_ns",
	} {
		if v, ok := got[n]; !ok || v < 0 || math.IsNaN(v) {
			t.Errorf("%s = %v (present %t)", n, v, ok)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
}
