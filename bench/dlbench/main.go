// Command dlbench is the repository's end-to-end benchmark. It builds
// cmd/dlserve, boots a real coordinator and two durable node processes
// on loopback, drives one of four named workloads from this single
// process over at most nproc connections, checks the answers, and
// prints every metric by name. A traced run replays the workload
// against the same topology assembled in-process, with spans at three
// boundaries, and attributes the latency to each layer.
//
//	go run -C bench ./dlbench                       every workload, untraced then traced
//	go run -C bench ./dlbench -repeat 2             the same twice, compared against the bounds
//	go run -C bench ./dlbench -quick                the smoke test's sizes
//	go run -C bench ./dlbench --workload mixed_rw --seed 3 --seconds 10 --trace 0
//
// With --workload the last line of standard output is one JSON object:
// the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// bench/README.md explains the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured time of
// a run, split over its rounds (workload.go says how each workload
// spends it).
const defaultSeconds = 10

// options are the command line.
type options struct {
	workload string // empty: all four, untraced then traced
	seed     int64
	seconds  float64
	traced   bool
	repeat   int
	quick    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the contract's JSON line (default: all four, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured time of a run, split over its rounds")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.IntVar(&o.repeat, "repeat", 1, "run every workload this many times and compare the end-to-end metrics of the first two runs against their bounds")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test sizes: 500 documents, 1 s phases, same code paths")
	describeFlag := flag.Bool("describe", false, "print BENCHMARK.json as the program's tables define it, and exit")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *describeFlag {
		b, err := describe()
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	o.traced = *trace == 1
	os.Exit(realMain(os.Stdout, o))
}

func realMain(out io.Writer, o options) int {
	started := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killAllChildren()

	p, err := findPaths()
	if err != nil {
		logf("%v", err)
		return 1
	}
	bin, err := buildServer(p)
	if err != nil {
		logf("%v", err)
		return 1
	}
	env := &env{paths: p, bin: bin, hc: newHTTPClient(), sz: fullSizes, seed: o.seed, quick: o.quick}
	defer env.hc.CloseIdleConnections()
	if o.quick {
		env.sz = quickSizes
		if o.seconds == defaultSeconds {
			o.seconds = 1
		}
	}

	if o.workload != "" {
		vs, u, err := runOne(ctx, env, o.workload, o.seconds, o.traced)
		if err != nil {
			logf("%s: %v", o.workload, err)
			return 1
		}
		defs := endToEnd
		if o.traced {
			defs = perLayer
		}
		fmt.Fprintf(out, "%s seed=%d seconds=%g traced=%v attempted=%d failed=%d\n", o.workload, o.seed, o.seconds, o.traced, u.attempted, u.failed)
		printValues(out, defs, vs)
		fmt.Fprintln(out, recoveryNote)
		fmt.Fprintf(out, "wall %.1f s\n", time.Since(started).Seconds())
		ms, err := toJSON(defs, vs)
		if err != nil {
			logf("%s: %v", o.workload, err)
			return 1
		}
		line, err := json.Marshal(result{Correct: u.failed == 0, Attempted: u.attempted, Failed: u.failed, Metrics: ms})
		if err != nil {
			logf("%v", err)
			return 1
		}
		fmt.Fprintln(out, string(line))
		if u.failed > 0 {
			return 1
		}
		return 0
	}

	code := 0
	runs := map[string][]values{}
	for _, name := range workloadNames {
		for r := 0; r < o.repeat; r++ {
			vs, u, err := runOne(ctx, env, name, o.seconds, false)
			if err != nil {
				logf("%s: %v", name, err)
				return 1
			}
			fmt.Fprintf(out, "%s (untraced, run %d of %d): attempted=%d failed=%d\n", name, r+1, o.repeat, u.attempted, u.failed)
			printValues(out, endToEnd, vs)
			if u.failed > 0 {
				code = 1
			}
			runs[name] = append(runs[name], vs)
		}
		vs, _, err := runOne(ctx, env, name, o.seconds, true)
		if err != nil {
			logf("%s traced: %v", name, err)
			return 1
		}
		fmt.Fprintf(out, "%s (traced; spans in %s)\n", name, filepath.Join("bench", "out", "trace-"+name+".json"))
		printValues(out, perLayer, vs)
	}
	if o.repeat > 1 && !compareRuns(out, runs) {
		code = 1
	}
	fmt.Fprintln(out, recoveryNote)
	fmt.Fprintf(out, "wall %.1f s\n", time.Since(started).Seconds())
	return code
}

// compareRuns prints, per end-to-end metric and workload, the first two
// runs' values, their relative difference and the bound, and reports
// whether every difference stays within its bound.
func compareRuns(out io.Writer, runs map[string][]values) bool {
	ok := true
	fmt.Fprintln(out, "repeat self-check: run 1, run 2, relative difference, bound")
	for _, name := range workloadNames {
		a, b := runs[name][0], runs[name][1]
		for _, d := range endToEnd {
			x, y := a[d.Name].V, b[d.Name].V
			diff := math.Abs(x-y) / math.Min(math.Abs(x), math.Abs(y))
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(out, "  %-18s %-26s %12.4f %12.4f %7.2f%% %6.1f%%  %s\n", name, d.Name, x, y, diff*100, d.Bound*100, verdict)
		}
	}
	return ok
}
