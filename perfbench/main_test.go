package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// ownNames are the metrics each workload prints under its own names
// above the JSON line.
var ownNames = map[string][]string{
	"vip-trio":   {"frame_ms_p50", "frame_ms_p90", "frames_per_s"},
	"fleet-int8": {"batch_ms_p50", "batch_ms_p90", "frames_per_s"},
	"serve-knee": {"sim_req_per_wall_s", "goodput_per_s", "latency_ms_p99"},
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode checks BENCHMARK.json lists exactly the metrics
// the benchmark reports, with the same units and directions.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code runs %d", len(spec.Workloads), len(workloads))
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks that every metric prints with its unit and that
// no operation fails.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				var out bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--spans", spans}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if trace == "0" {
					for _, n := range ownNames[wl.Name] {
						if !strings.Contains(out.String(), "\n"+n+" ") {
							t.Errorf("report lacks %s\n%s", n, out.String())
						}
					}
				}
			})
		}
	}
}
