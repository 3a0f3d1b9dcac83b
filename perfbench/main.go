// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself: run.sh compiles cmd/p2pserve and this program, then runs
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which launches real p2pserve processes on loopback, drives them over
// HTTP with inputs generated from the seed, checks every answer against a
// serial in-process reference, and prints one JSON result as the last line
// of standard output. The line before it is the run record (environment,
// per-phase counts, every named metric with its sample count).
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
// from /v1/stats deltas and from timed calls into each module's public
// functions on the same generated inputs. See README.md for the workloads
// and for which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	bin      string
	outDir   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "interactive-cempar | bulk-local | publish-under-load")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds of the run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "short run for the benchmark's own tests (small phases, few set-ups)")
	flag.StringVar(&o.bin, "bin", ".bench_build/p2pserve", "p2pserve binary to launch")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for the span dump of traced runs")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace %d: want 0 or 1", trace)
	}
	if o.seconds < 1 {
		fatalf("--seconds %d: want at least 1", o.seconds)
	}
	if _, err := os.Stat(o.bin); err != nil {
		fatalf("p2pserve binary: %v", err)
	}
	res, rec, err := run(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	printJSON(rec)
	printJSON(res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding output: %v", err)
	}
	fmt.Println(string(data))
}

// run executes one workload and returns the result line and the record.
func run(o options) (*result, *record, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rc := newRunCtx(o)
	rec := newRecord(o)
	start := time.Now()
	if err := w(rc); err != nil {
		return nil, nil, err
	}
	rec.fill(rc, time.Since(start))
	res := rc.result(o.trace)
	return res, rec, nil
}
