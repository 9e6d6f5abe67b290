// Command perfbench is the repository's benchmark. It generates MAP
// assembly programs for one workload from a seed, drives them through
// the same public path mmsim uses (asm → capverify → kernel → machine
// with the jit, multi/noc for the mesh, persist/migrate for
// durability), checks every output against a Go model of the generated
// program, and prints one JSON result line.
//
// Usage:
//
//	perfbench --workload compute --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from a traced run
// with in-memory spans, a CPU profile and replay probes. See
// METRICS.md for every metric and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: compute | stream | domains | mesh")
	seed := fs.Uint64("seed", 1, "generator seed; the same seed generates the same programs and data")
	seconds := fs.Float64("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", defaultOut(), "directory for checkpoint stores, traces and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	outer, ok := defaultOuter[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		return 2
	}
	runtime.GOMAXPROCS(serialProcs)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := bench1(*workload, *seed, outer, *seconds, *trace == 1, *out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// defaultOut places outputs in the build directory the benchmark is
// built into, inside the checkout.
func defaultOut() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "perfbench-out")
}

// bench1 runs one workload invocation and returns its result.
func bench1(w string, seed uint64, outer int, seconds float64, traced bool, out string, stdout io.Writer) (*result, error) {
	in, err := newInstance(w, seed, outer)
	if err != nil {
		return nil, err
	}
	record := 0
	if traced {
		record = recordCap / len(in.threads)
	}
	ex, err := runModel(in, record)
	if err != nil {
		return nil, err
	}
	h := host(out)
	hj, err := json.Marshal(map[string]any{"host": h, "workload": w, "seed": seed, "trace": traced})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(hj))

	b := newBench(in, ex, out)
	b.warmUp()
	if !traced {
		b.measure(seconds, 1, minRestores)
		b.printSamples(stdout)
		return b.result(b.endToEnd()), nil
	}

	// Untraced and traced halves: their sim_mips ratio is the tracing
	// overhead (spans plus the CPU profile).
	b.measure(seconds/2, 1, 0)
	untraced := b.acc
	b.acc = acc{}
	b.tr.on = true
	profPath := filepath.Join(out, fmt.Sprintf("cpu-%s-%d.pprof", w, seed))
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	b.measure(seconds/2, 1000, 0)
	l := b.lastLive
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	shares, err := profileShares(profPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: profile cross-check unavailable:", err)
	}
	var rp replayResult
	if l != nil {
		b.attempted++
		if rp, err = b.replay(l); err != nil {
			b.fail("replay: %v", err)
		}
	}
	tracePath := filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", w, seed))
	if err := b.tr.writeChrome(tracePath, map[string]any{"host": h, "workload": w, "seed": seed}); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "perfbench: trace %s, profile %s\n", tracePath, profPath)
	b.printSamples(stdout)
	return b.result(b.perLayer(&untraced, rp, shares)), nil
}

// printSamples prints how many samples each timing summarises.
func (b *bench) printSamples(stdout io.Writer) {
	a := &b.acc
	fmt.Fprintf(stdout, "perfbench: samples: %d program runs, %d setups, %d delta and %d base checkpoints, %d restores, %d migrations\n",
		a.runs, len(a.setupS), len(a.captureMs), len(a.baseCaptureMs), len(a.restoreMs), len(a.migrateMs))
}

func (b *bench) result(m metrics) *result {
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}
