package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check.
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
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// p2pserve builds the server once per test binary.
func p2pserve(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-smoke")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "p2pserve")
		out, err := exec.Command("go", "build", "-o", binPath, "repro/cmd/p2pserve").CombinedOutput()
		if err != nil {
			buildErr = err
			t.Logf("%s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building p2pserve: %v", buildErr)
	}
	return binPath
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}

// smoke runs one workload in smoke mode in-process.
func smoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace, smoke: true,
		bin: p2pserve(t), outDir: t.TempDir()}
	res, _, err := run(o)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct=%v failed=%d attempted=%d", workload, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestSmokeEmitsEveryMetric runs every workload of BENCHMARK.json, both
// untraced and traced, and checks each listed metric appears with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("launches p2pserve processes")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			e2e := smoke(t, w.Name, false)
			for _, m := range spec.EndToEnd {
				got, ok := e2e.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(e2e.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run emits %d metrics, BENCHMARK.json lists %d", len(e2e.Metrics), len(spec.EndToEnd))
			}
			layer := smoke(t, w.Name, true)
			for _, m := range spec.PerLayer {
				got, ok := layer.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(layer.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run emits %d metrics, BENCHMARK.json lists %d", len(layer.Metrics), len(spec.PerLayer))
			}
			if v := layer.Metrics["realnet.rejects"].Value; v != 0 {
				t.Errorf("realnet.rejects = %v, want 0", v)
			}
		})
	}
}

// TestOutputCheckCountsMismatches feeds the output check one right and two
// wrong answers and expects exactly two failed operations.
func TestOutputCheckCountsMismatches(t *testing.T) {
	rc := newRunCtx(options{})
	a := &answers{}
	ref := func() (func(string) ([]string, error), error) {
		return func(text string) ([]string, error) { return []string{"tag-" + text}, nil }, nil
	}
	a.add("x", []string{"tag-x"})
	a.add("y", []string{"tag-x"})
	a.add("z", nil)
	if err := rc.check(a, ref); err != nil {
		t.Fatal(err)
	}
	if rc.failed != 2 {
		t.Fatalf("failed = %d, want 2", rc.failed)
	}
}

// TestSmokeExactCountsRepeat runs the traced workloads twice with the same
// seed; the counts documented as exact must match bit for bit.
func TestSmokeExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("launches p2pserve processes")
	}
	exact := map[string][]string{
		"bulk-local": {"serving.batches", "textproc.tokens_per_doc",
			"tagger.cempar.allocs_per_doc", "tagger.local.allocs_per_doc", "realnet.bytes_per_publish"},
		"interactive-cempar": {"swarm.msgs_per_query", "swarm.bytes_per_query", "textproc.tokens_per_doc"},
	}
	for w, names := range exact {
		t.Run(w, func(t *testing.T) {
			a, b := smoke(t, w, true), smoke(t, w, true)
			for _, name := range names {
				va, ok := a.Metrics[name]
				if !ok {
					t.Errorf("%s missing", name)
					continue
				}
				if vb := b.Metrics[name]; va.Value != vb.Value {
					t.Errorf("%s: %v then %v, want identical", name, va.Value, vb.Value)
				}
			}
		})
	}
}
