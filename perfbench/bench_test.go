package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/query"
	"starts/internal/result"
)

// testSizes shrinks the fleets and windows so every workload runs in
// seconds; the code paths are the full benchmark's.
var testSizes = sizes{
	localDocs:      300,
	httpDocs:       200,
	setups:         2,
	coldRate:       40,
	stragglerDelay: 5 * time.Millisecond,
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func testConfig(t *testing.T, seed int64, traced bool) runConfig {
	return runConfig{
		seed: seed, window: time.Second, traced: traced, sz: testSizes,
		traceDir: t.TempDir(), log: t.Logf,
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each listed workload briefly,
// untraced and traced, and checks that the printed result line carries
// every metric BENCHMARK.json names, with its unit, and that every answer
// passed the reference check.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not define", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := run(context.Background(), w, testConfig(t, defaultSeed, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var printed struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			if !printed.Correct || printed.Failed != 0 || printed.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, printed.Correct, printed.Attempted, printed.Failed)
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json lists %d", w.name, traced, len(printed.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := printed.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s printed with unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// TestAnswerCheckRejectsCorruptedAnswers corrupts answers on their way
// out of the system under test and checks that the reference comparison
// catches every kind of corruption: a score off by one unit in the last
// place, and two documents swapped. It runs on the held-out seed; the
// clean runs above use the default one.
func TestAnswerCheckRejectsCorruptedAnswers(t *testing.T) {
	corruptions := map[string]func([]*result.Document) []*result.Document{
		"score": func(docs []*result.Document) []*result.Document {
			out := append([]*result.Document(nil), docs...)
			d := *out[0]
			d.RawScore = math.Nextafter(d.RawScore, math.Inf(1))
			out[0] = &d
			return out
		},
		"order": func(docs []*result.Document) []*result.Document {
			out := append([]*result.Document(nil), docs...)
			out[0], out[len(out)-1] = out[len(out)-1], out[0]
			return out
		},
	}
	for _, name := range []string{"local-cold", "local-hot", "http-straggler"} {
		for kind, corrupt := range corruptions {
			rc := testConfig(t, heldOutSeed, false)
			rc.tamper = func(tgt target) target {
				return func(ctx context.Context, q *query.Query, first func()) ([]*result.Document, error) {
					docs, err := tgt(ctx, q, first)
					if err != nil || len(docs) < 2 || docs[0].Linkage() == docs[len(docs)-1].Linkage() {
						return docs, err
					}
					return corrupt(docs), nil
				}
			}
			rep, err := run(context.Background(), workloads[name], rc)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			if rep.Correct || rep.Failed == 0 {
				t.Errorf("%s/%s: corrupted answers passed the check (correct=%v failed=%d of %d)",
					name, kind, rep.Correct, rep.Failed, rep.Attempted)
			}
		}
	}
}

// TestFingerprintSeesScoresAndOrder pins what the answer check compares.
func TestFingerprintSeesScoresAndOrder(t *testing.T) {
	doc := func(link string, score float64) *result.Document {
		return &result.Document{RawScore: score, Fields: map[attr.Field]string{attr.FieldLinkage: link}}
	}
	a := []*result.Document{doc("http://x/1", 0.5), doc("http://x/2", 0.25)}
	same := []*result.Document{doc("http://x/1", 0.5), doc("http://x/2", 0.25)}
	swapped := []*result.Document{a[1], a[0]}
	nudged := []*result.Document{doc("http://x/1", math.Nextafter(0.5, 1)), a[1]}
	if fingerprint(a) != fingerprint(same) {
		t.Error("equal answers fingerprint differently")
	}
	if fingerprint(a) == fingerprint(swapped) || fingerprint(a) == fingerprint(nudged) || fingerprint(a) == fingerprint(a[:1]) {
		t.Error("a changed answer kept its fingerprint")
	}
}
