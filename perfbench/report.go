package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// namedMetric is a metric of the run record: the workload-specific names
// (tag.low.p50_ms, bulk.docs_per_s, ...) with the sample count behind
// each percentile.
type namedMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// phaseRecord counts one load phase: what was sent, what came back right,
// and how late the generator itself ran.
type phaseRecord struct {
	Name      string  `json:"name"`
	RatePerS  float64 `json:"rate_per_s,omitempty"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	// Generator lateness: how long after its due time an idle sender
	// actually sent. It measures the client's timer, not the server.
	GenLateP50Ms   float64 `json:"gen_late_p50_ms"`
	GenLateP99Ms   float64 `json:"gen_late_p99_ms"`
	GenLateSamples int     `json:"gen_late_samples"`
	// BacklogMs is how long after the phase's last due time the last
	// answer arrived; a growing backlog means the offered rate was not
	// sustained.
	BacklogMs float64 `json:"backlog_ms"`
	Valid     bool    `json:"valid"`
}

// runCtx accumulates everything one run measures.
type runCtx struct {
	o      options
	e2e    map[string]metricValue
	layer  map[string]metricValue
	named  map[string]namedMetric
	phases []phaseRecord
	// attempted and failed count operations: requests, publishes and the
	// end-of-run accounting checks. A wrong answer is a failed operation.
	attempted, failed int64
	invalid           []string
	tr                *tracer
	// relaunch starts the run's servers once more, adding the launch
	// time to setupTimes.
	relaunch   func() (*cluster, error)
	setupTimes []float64
}

func newRunCtx(o options) *runCtx {
	return &runCtx{
		o:     o,
		e2e:   map[string]metricValue{},
		layer: map[string]metricValue{},
		named: map[string]namedMetric{},
		tr:    newTracer(o.trace),
	}
}

func (rc *runCtx) setE2E(name, unit string, v float64) {
	rc.e2e[name] = metricValue{Value: v, Unit: unit}
}

func (rc *runCtx) setLayer(name, unit string, v float64) {
	rc.layer[name] = metricValue{Value: v, Unit: unit}
}

func (rc *runCtx) setNamed(name, unit string, v float64, samples int) {
	rc.named[name] = namedMetric{Value: v, Unit: unit, Samples: samples}
}

// fail counts n failed operations and says why on standard error.
func (rc *runCtx) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	rc.failed += int64(n)
	fmt.Fprintf(os.Stderr, "perfbench: %d failed: "+format+"\n", append([]any{n}, args...)...)
}

// addPhase records a phase and counts ops operations as attempted, of
// which failedOps failed (for single-document requests both equal the
// phase's request counts; a bulk request carries many documents).
func (rc *runCtx) addPhase(p phaseRecord, ops, failedOps int) {
	rc.phases = append(rc.phases, p)
	rc.attempted += int64(ops)
	rc.fail(failedOps, "phase %s: requests failed or refused", p.Name)
	if !p.Valid {
		rc.invalid = append(rc.invalid, p.Name)
		fmt.Fprintf(os.Stderr, "perfbench: phase %s invalid: the generator fell behind (lateness p99 %.2f ms)\n",
			p.Name, p.GenLateP99Ms)
	}
}

func (rc *runCtx) result(trace bool) *result {
	m := rc.e2e
	if trace {
		m = rc.layer
	}
	if rc.attempted == 0 {
		rc.attempted = 1
		rc.failed = 1
	}
	return &result{Correct: rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: m}
}

// record is the run record printed before the result line.
type record struct {
	Record     string                 `json:"record"`
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Smoke      bool                   `json:"smoke,omitempty"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go_version"`
	Commit     string                 `json:"commit"`
	BinarySHA  string                 `json:"p2pserve_sha256"`
	WallS      float64                `json:"wall_s"`
	Valid      bool                   `json:"valid"`
	Invalid    []string               `json:"invalid_phases,omitempty"`
	ErrorRatio float64                `json:"errors_ratio"`
	Phases     []phaseRecord          `json:"phases"`
	Named      map[string]namedMetric `json:"named"`
}

func newRecord(o options) *record {
	return &record{
		Record:     "perfbench",
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Smoke:      o.smoke,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		BinarySHA:  fileSHA(o.bin),
	}
}

func (r *record) fill(rc *runCtx, wall time.Duration) {
	r.WallS = wall.Seconds()
	r.Phases = rc.phases
	r.Invalid = rc.invalid
	r.Valid = len(rc.invalid) == 0
	if rc.attempted > 0 {
		r.ErrorRatio = float64(rc.failed) / float64(rc.attempted)
	}
	rc.setNamed("errors_ratio", "ratio", r.ErrorRatio, int(rc.attempted))
	r.Named = rc.named
}

// gitCommit names the commit under test when the working directory is
// the root of a git checkout; a plain source tree reports "unknown" and
// the binary digest identifies the build instead.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fileSHA(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// durations is a sample of latencies. Failed requests enter as +Inf so
// they count as missing every latency limit.
type durations []float64

func (d durations) sorted() durations {
	s := append(durations(nil), d...)
	sort.Float64s(s)
	return s
}

// pct is the nearest-rank p-quantile (p in (0,1]) of a sorted sample.
func (d durations) pct(p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}

func ms(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	return durations(xs).sorted().pct(0.5)
}
