package main

import (
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/jit"
)

func TestSameSeedSameSource(t *testing.T) {
	for _, w := range workloadNames {
		text := func(seed uint64) string {
			in, err := newInstance(w, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, s := range in.segs {
				if s.code != nil {
					b.WriteString(s.code.source())
				}
			}
			return b.String()
		}
		if a, b := text(7), text(7); a != b {
			t.Errorf("%s: seed 7 generated two different sources", w)
		}
		if text(7) == text(8) {
			t.Errorf("%s: seeds 7 and 8 generated the same source", w)
		}
	}
}

// Seeds change the order of compute's operations, not their mix.
func TestComputeMixIndependentOfSeed(t *testing.T) {
	mix := func(seed uint64) map[opcode]int {
		in, err := newInstance("compute", seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := make(map[opcode]int)
		for _, s := range in.segs[0].code.stmts {
			n[s.op]++
		}
		return n
	}
	a, b := mix(7), mix(8)
	for _, op := range aluOps {
		if a[op] == 0 || a[op] != b[op] {
			t.Errorf("%s: seed 7 emits %d, seed 8 emits %d", mnemonic[op], a[op], b[op])
		}
	}
}

func TestDeckDealsEachItemOncePerRound(t *testing.T) {
	d := newDeck(rand.New(rand.NewPCG(1, 2)), []int{0, 1, 2, 3, 4})
	for round := 0; round < 3; round++ {
		seen := make(map[int]bool)
		for i := 0; i < 5; i++ {
			seen[d.next()] = true
		}
		if len(seen) != 5 {
			t.Fatalf("round %d dealt %v", round, seen)
		}
	}
}

// Every generated program assembles, and the verifier finds no
// provable fault in any program loaded under the loader contract.
func TestProgramsAssembleAndVerify(t *testing.T) {
	for _, w := range workloadNames {
		for seed := uint64(1); seed <= 3; seed++ {
			in, err := newInstance(w, seed, defaultOuter[w])
			if err != nil {
				t.Fatal(err)
			}
			for p, src := range sources(in) {
				ap, err := asm.AssembleNamed(p.name, src)
				if err != nil {
					t.Fatalf("%s seed %d: %v", p.name, seed, err)
				}
				if len(ap.Words) != len(p.words) {
					t.Errorf("%s seed %d: assembled %d words, generator laid out %d", p.name, seed, len(ap.Words), len(p.words))
				}
				if p.name == "subsystem" {
					continue // entered with arguments, outside the loader contract
				}
				rep := capverify.Verify(ap, capverify.Config{DataBytes: in.dataMax})
				if rep.HasFault() {
					t.Errorf("%s seed %d: provable fault %v", p.name, seed, rep.Faults()[0])
				}
			}
		}
	}
}

// runChecked boots in, runs it to completion without pauses, and
// checks every thread and data segment against the model; it returns
// the run's signature with the translator's own counters left out.
func runChecked(t *testing.T, in *instance) string {
	t.Helper()
	ex, err := runModel(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(in, ex, t.TempDir())
	l, c, ok := b.programRun(0, false, true)
	if !ok || b.failed != 0 {
		t.Fatalf("%s (jit %v): %d of %d checks failed: %v", in.workload, in.jit, b.failed, b.attempted, b.failures)
	}
	c.j = jit.Counters{}
	sig, err := signature(l, c)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// On reduced sizes the model's results equal an interpreter run, and
// the translator changes neither results nor any statistic.
func TestModelAndTranslatorAgreeWithInterpreter(t *testing.T) {
	seeds := map[string][]uint64{"compute": {1, 2, 3}, "stream": {1, 2, 3}, "domains": {1, 2}, "mesh": {1, 2}}
	for _, w := range workloadNames {
		for _, seed := range seeds[w] {
			in, err := newInstance(w, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			in.jit = false
			interp := runChecked(t, in)
			in.jit = true
			if compiled := runChecked(t, in); compiled != interp {
				t.Errorf("%s seed %d: translator changed the run\ninterp: %s\njit:    %s", w, seed, interp, compiled)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(true)
	outer := tr.begin("migrate.run")
	time.Sleep(2 * time.Millisecond)
	inner := tr.begin("machine.run")
	time.Sleep(5 * time.Millisecond)
	tr.end(inner)
	total := tr.end(outer)
	self := tr.selfOf("migrate.run")
	if len(self) != 1 {
		t.Fatalf("got %d migrate.run spans", len(self))
	}
	child := tr.durations("machine.run")[0]
	if self[0] <= 0 || self[0]+child > total+time.Microsecond || self[0]+child < total-time.Microsecond {
		t.Errorf("self %v + child %v != total %v", self[0], child, total)
	}
	if tr.spans[1].parent != 0 {
		t.Errorf("child span parent = %d, want 0", tr.spans[1].parent)
	}
}

func TestParseTop(t *testing.T) {
	out := `File: perfbench
Type: cpu
Active filters:
   focus=Step
Showing nodes accounting for 300ms, 100% of 300ms total
      flat  flat%   sum%        cum   cum%
     150ms 50.00% 50.00%      150ms 50.00%  repro/internal/machine.(*Machine).execute
      90ms 30.00% 80.00%       90ms 30.00%  repro/internal/vm.(*Space).Translate
      60ms 20.00%   100%       60ms 20.00%  runtime.memmove
`
	got, err := parseTop([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"machine": 0.5, "vm": 0.3, "runtime": 0.2}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share = %v, want %v", k, got[k], v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 0.9); q < 4.59 || q > 4.61 {
		t.Errorf("p90 = %v", q)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not 0")
	}
}
