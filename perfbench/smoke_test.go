package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram: BENCHMARK.json lists exactly the
// workloads and metrics, with the units, that the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(file), len(defs))
		}
		for i, m := range file {
			if m.Name != defs[i].Name || m.Unit != defs[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, defs[i].Name, defs[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly, untraced and traced, through the
// command line, and checks the result line: every metric present with its
// unit, no failed op, and the fault-free invariants at zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.6", "--trace", trace,
					"--trace-out", filepath.Join(t.TempDir(), "spans.json")}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit code %d, output:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if trace == "1" {
					for _, name := range []string{"session.replayed_frames", "session.reconnects", "prmi.retries",
						"prmi.dedup_hits", "bufpool.outstanding_after_close"} {
						if v := res.Metrics[name].Value; v != 0 {
							t.Errorf("%s = %v, want 0", name, v)
						}
					}
				}
			})
		}
	}
}

// corrupted runs the real op and then damages one destination element,
// as a faulty transfer would.
type corrupted struct {
	workload
	damage func()
}

func (c corrupted) run(k int) error {
	err := c.workload.run(k)
	c.damage()
	return err
}

// TestOracleCountsCorruptedElement: one wrong destination element makes a
// failed op, and so does a destination still holding the previous op.
func TestOracleCountsCorruptedElement(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			r := newRunner(&spec, 3)
			r.onTimeout = func(k int) { t.Errorf("op %d timed out", k) }
			w, err := spec.setup(nil, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if _, ok := r.op(w, nil, 0); !ok || r.failed.Load() != 0 {
				t.Fatalf("clean op: ok=%v failed=%d problems=%v", ok, r.failed.Load(), r.problems)
			}
			var damage func()
			switch w := w.(type) {
			case *bulk:
				damage = func() { w.dst[2][1234] += 1 }
			case *strided:
				damage = func() { w.dst[1][4321] += 1 }
			case *prmiWork:
				damage = func() { w.local[1][77] += 1 }
			default:
				t.Fatalf("no corruption for %T", w)
			}
			if _, ok := r.op(corrupted{w, damage}, nil, 1); !ok {
				t.Fatalf("corrupted op stopped the loop: %v", r.problems)
			}
			if got := r.failed.Load(); got != 1 {
				t.Fatalf("corrupted element counted as %d failed ops, want 1", got)
			}
			if _, ok := r.op(w, nil, 2); !ok || r.failed.Load() != 1 {
				t.Fatalf("clean op after corruption: ok=%v failed=%d", ok, r.failed.Load())
			}
			w.prepare(3)
			if err := w.verify(3); err == nil {
				t.Fatal("op 2's outputs passed as op 3's")
			}
		})
	}
}
