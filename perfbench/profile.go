package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileFocus keeps the CPU samples taken while the simulation runs:
// everything under a machine step, plus the mesh's barrier-time remote
// delivery. Set-up and durability operations are outside it.
const profileFocus = `machine\.\(\*Machine\)\.Step$|multi\.\(\*System\)\.deliver$`

// profileModules are the repro/internal packages (and the Go runtime)
// whose share of simulation CPU time the profile reports.
var profileModules = []string{"machine", "jit", "core", "vm", "cache", "mem", "multi", "noc", "kernel", "isa", "word", "runtime"}

// profileShares sums the flat CPU samples of path per module through
// `go tool pprof -top`, as fractions of all focused samples.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms",
		"-symbolize=none", "-focus="+profileFocus, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop reads pprof -top output: after the "flat flat% ..." header,
// one line per function whose first field is its flat time and whose
// sixth onward is its name.
func parseTop(out []byte) (map[string]float64, error) {
	shares := make(map[string]float64)
	var total float64
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := parseDuration(f[0])
		if err != nil {
			return nil, err
		}
		total += v
		shares[moduleOf(strings.Join(f[5:], " "))] += v
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= total
		}
	}
	return shares, nil
}

// parseDuration reads a pprof time value such as "120ms" or "0" as
// milliseconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		ms     float64
	}{{"ns", 1e-6}, {"us", 1e-3}, {"ms", 1}, {"s", 1e3}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.ms, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// moduleOf maps a function name to its repro/internal package, or
// "runtime" for the Go runtime, or "other".
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	return "other"
}
