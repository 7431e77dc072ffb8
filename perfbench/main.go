// Command perfbench is the metasearch benchmark: one process that builds
// a STARTS fleet from a seed, drives one workload against it for a fixed
// time, checks every answer against an independently built reference,
// and prints the workload's metrics as one JSON line.
//
//	bash perfbench/run.sh --workload local-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it runs the same workload untraced and then traced (the
// benchmark's timing wrappers on) and reports the per-layer metrics.
// Workloads, metrics and bounds are listed in BENCHMARK.json at the
// repository root; workloads.go says what each workload exercises and
// layers.go how each per-layer metric is derived.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// sizes are the fleet dimensions and repetition counts of a run; the
// self-test shrinks them.
type sizes struct {
	localDocs int // documents per source, local workloads
	httpDocs  int // documents per source, http-straggler
	setups    int // set-ups timed for setup_s; the last one is driven
	// coldRate is local-cold's offered rate, queries per second: about a
	// third of the ~200 q/s a closed loop reaches on a 2-vCPU machine.
	coldRate float64
	// stragglerDelay is the slow source's added latency per wire call.
	stragglerDelay time.Duration
}

var fullSizes = sizes{
	localDocs:      5000,
	httpDocs:       1000,
	setups:         3,
	coldRate:       65,
	stragglerDelay: 20 * time.Millisecond,
}

// Seeds recorded in BENCHMARK.json: claims are made on the default seed
// and must also hold on the held-out one.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: local-cold, local-hot or http-straggler")
		seed    = flag.Int64("seed", defaultSeed, "seed for the corpus, the queries and the draws")
		seconds = flag.Int("seconds", 10, "length of each measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload local-cold|local-hot|http-straggler, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	out := os.Stdout
	fmt.Fprintf(out, "# perfbench %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := run(context.Background(), w, runConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		sz: fullSizes, traceDir: filepath.Join(".bench_build", "traces"),
		log: func(format string, args ...any) { fmt.Fprintf(out, "# "+format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: answer check failed")
		os.Exit(1)
	}
}

// quantile returns the q-quantile of ds by the nearest-rank method; ds
// is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(float64(len(ds))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
