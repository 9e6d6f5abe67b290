package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/machine"
	"repro/internal/multi"
	"repro/internal/noc"
	"repro/internal/persist"
	"repro/internal/vm"
	"repro/internal/word"
)

// Pause schedule of one timed program run: the run is split into
// pausesPerRun chunks; at every migrateEvery-th pause the node is live
// migrated, at the others a checkpoint is committed. A migration's
// stop-the-world window depends on what the program is doing when it
// starts, so migrations sample many points of the run.
//
// A checkpoint that completes a chain (a base image and
// persist.DefaultBaseEvery-1 deltas, the longest chain the Saver's
// policy builds) is restored and checked. A restore replays the whole
// chain, so its time grows with the chain's length; restoring at every
// 2nd checkpoint mixed chains of 2, 4, 6 and 8 generations in equal
// parts, and the median fell on the jump between the 4s and the 6s.
// A full chain comes once in eight checkpoints, so it is restored
// restoresPerChain times.
const (
	pausesPerRun     = 40
	migrateEvery     = 2
	restoresPerChain = 2
	minTimedRuns     = 3
	// minCheckpoints delta captures leave ten samples beyond
	// delta_capture_ms_p90.
	minCheckpoints = 100
	// minRestores restores make restore_ms_p50; only untraced runs
	// report it.
	minRestores = 20
)

// bench is one invocation: a workload instance, its expected outcome,
// and everything measured so far.
type bench struct {
	w      string
	in     *instance
	src    map[*prog]string
	ex     *expect
	tr     *tracer
	probe  *hostProbe
	outDir string
	chunk  uint64 // cycles between pauses (0 = run straight through)
	total  uint64 // cycles one program run takes

	attempted, failed int
	failures          []string

	acc      acc   // measurements of the timed runs
	lastLive *live // the latest program run (parallel scheduler on the mesh)
}

// acc accumulates one phase's measurements.
type acc struct {
	runs                   int
	setupS                 []float64
	sim, simSerial         time.Duration // wall time inside run calls
	instrs, instrsSerial   uint64
	cycles                 uint64
	runMIPS, runMIPSSerial []float64 // per program run
	captureMs, restoreMs   []float64 // CPU time; captures of deltas only
	baseCaptureMs          []float64 // wall time of base-image captures
	checkpointMs           []float64 // a whole commit, wall time
	migrateMs, stwCycles   []float64
	migRounds, migWire     []float64
	migRetransmits         uint64
	encodeMs, decodeMs     []float64
	deltaBytes, baseBytes  []float64
	frameCodecUs           []float64
	verdict                verdict
	last                   counts // layer counters of the latest program run
	lastGenerations        uint64 // generations the latest program run committed
}

func newBench(in *instance, ex *expect, outDir string) *bench {
	return &bench{w: in.workload, in: in, src: sources(in), ex: ex, tr: newTracer(false), probe: newHostProbe(), outDir: outDir}
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	msg := fmt.Sprintf(format, args...)
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", b.w, msg)
}

// counts are the layers' own counters after one program run, summed
// over nodes.
type counts struct {
	m     machine.Stats
	c     cache.Stats
	s     vm.SpaceStats
	tlb   vm.TLBStats
	j     jit.Counters
	net   noc.Stats
	mesh  multi.Stats
	cycle uint64 // simulated cycles of the whole instance
}

func collect(l *live) counts {
	var c counts
	c.c.BankAccesses = make([]uint64, 0)
	for _, k := range l.kerns {
		ms := k.M.Stats()
		c.m.Cycles += ms.Cycles
		c.m.Instructions += ms.Instructions
		c.m.IdleCycles += ms.IdleCycles
		c.m.StallCycles += ms.StallCycles
		c.m.Switches += ms.Switches
		c.m.DomainSwaps += ms.DomainSwaps
		c.m.Traps += ms.Traps
		c.m.Faults += ms.Faults
		c.m.IssuePackets += ms.IssuePackets
		cs := k.M.Cache.Stats()
		c.c.Accesses += cs.Accesses
		c.c.Hits += cs.Hits
		c.c.Misses += cs.Misses
		c.c.Writebacks += cs.Writebacks
		c.c.ConflictCycles += cs.ConflictCycles
		c.c.MemWaitCycles += cs.MemWaitCycles
		for i, n := range cs.BankAccesses {
			if i >= len(c.c.BankAccesses) {
				c.c.BankAccesses = append(c.c.BankAccesses, 0)
			}
			c.c.BankAccesses[i] += n
		}
		ss := k.M.Space.Stats()
		c.s.Translations += ss.Translations
		c.s.PageWalks += ss.PageWalks
		c.s.PageFaults += ss.PageFaults
		c.s.DemandMaps += ss.DemandMaps
		ts := k.M.Space.TLB.Stats()
		c.tlb.Hits += ts.Hits
		c.tlb.Misses += ts.Misses
		c.tlb.Flushes += ts.Flushes
		if e := k.M.JIT(); e != nil {
			c.j.Compiled += e.Counters.Compiled
			c.j.Invalidated += e.Counters.Invalidated
			c.j.Entries += e.Counters.Entries
			c.j.ElidedSites += e.Counters.ElidedSites
			c.j.RetainedSites += e.Counters.RetainedSites
		}
	}
	if l.sys != nil {
		c.net = l.sys.Net.Stats()
		c.mesh = l.sys.Stats()
	}
	c.cycle = l.cycle()
	return c
}

// signature renders everything the parallel and serial mesh schedules
// must agree on: every node's architectural fingerprint and the
// machine, cache, translator, network and mesh counters.
func signature(l *live, c counts) (string, error) {
	s := fmt.Sprintf("%+v|%+v|%+v|%+v|%+v|%+v|%+v", c.m, c.c, c.s, c.tlb, c.j, c.net, c.mesh)
	for _, k := range l.kerns {
		fp, err := fingerprint(k)
		if err != nil {
			return "", err
		}
		s += fmt.Sprintf("|%#x", fp)
	}
	return s, nil
}

// programRun boots the instance and runs the program to completion,
// pausing for durability operations when pauses is set, then checks
// every output. serial selects the mesh's serial scheduler.
func (b *bench) programRun(run int, pauses, serial bool) (*live, counts, bool) {
	runtime.GC()
	b.tr.run = run
	var sc cpuClock
	sc.resume()
	l, v, err := setup(b.tr, b.in, b.src, serial)
	sc.pause()
	if err != nil {
		b.attempted++
		b.fail("setup: %v", err)
		return nil, counts{}, false
	}
	b.acc.setupS = append(b.acc.setupS, b.probe.norm(sc.total).Seconds())
	b.acc.verdict = v

	// The parallel mesh spreads the simulation over worker threads, so
	// its rate is taken in wall time; everywhere else the simulation
	// runs on this goroutine and its CPU time is used. Each chunk's time
	// is normalised to the reference host speed (hostProbe) and summed
	// into host.
	parallel := l.sys != nil && !serial
	var wall, host time.Duration
	run1 := func(n uint64) time.Duration {
		m := b.tr.begin("machine.run")
		l.run(n)
		d := b.tr.end(m)
		wall += d
		return d
	}
	step := func(n uint64) {
		if parallel {
			var d time.Duration
			parallelProcs(func() { d = run1(n) })
			host += b.probe.norm(d)
			return
		}
		var cpu cpuClock
		cpu.resume()
		run1(n)
		cpu.pause()
		host += b.probe.norm(cpu.total)
	}
	var d *durable
	if pauses && b.chunk > 0 {
		dir := filepath.Join(b.outDir, fmt.Sprintf("store-%s-%d", b.w, os.Getpid()))
		cfg := b.in.node
		if l.sys != nil {
			cfg = b.in.mesh.Node
		}
		if d, err = newDurable(b, cfg, dir); err != nil {
			b.attempted++
			b.fail("store: %v", err)
			return nil, counts{}, false
		}
		defer d.close()
	}
	k0 := l.kerns[0]
	limit := 4 * b.total
	if limit == 0 {
		// Warm-up: the cycle count is not known yet. No machine here
		// retires fewer than one instruction per 64 cycles.
		for _, n := range b.ex.counts {
			limit += 64 * n
		}
	}
	for pause := 1; !l.done() && l.cycle() < limit; pause++ {
		n := b.chunk
		if d == nil {
			n = limit - l.cycle()
		}
		step(n)
		if d == nil || l.done() {
			continue
		}
		if pause%migrateEvery == 0 {
			d.migrate(k0, step)
			continue
		}
		if d.checkpoint(k0) && d.sinceBase == persist.DefaultBaseEvery-1 {
			for i := 0; i < restoresPerChain; i++ {
				d.restore(k0)
			}
		}
	}
	c := collect(l)
	a := &b.acc
	if d != nil {
		a.lastGenerations = d.gen
	}
	if serial {
		a.runMIPSSerial = append(a.runMIPSSerial, mips(c.m.Instructions, host))
		a.instrsSerial += c.m.Instructions
		a.simSerial += wall
	} else {
		a.runMIPS = append(a.runMIPS, mips(c.m.Instructions, host))
		a.instrs += c.m.Instructions
		a.sim += wall
		a.cycles += c.cycle
	}
	a.last = c
	if !serial {
		b.lastLive = l
	}
	ok := b.check(l)
	return l, c, ok
}

// check compares every thread and every data segment with the model.
func (b *bench) check(l *live) bool {
	ok := true
	for i, th := range l.threads {
		b.attempted++
		if err := b.checkThread(l, i, th); err != nil {
			b.fail("thread %d: %v", i, err)
			ok = false
		}
	}
	b.attempted++
	if err := b.checkMemory(l); err != nil {
		b.fail("memory: %v", err)
		ok = false
	}
	return ok
}

func (b *bench) checkThread(l *live, i int, th *machine.Thread) error {
	if th.State != machine.Halted || th.Fault != nil {
		return fmt.Errorf("state %v, fault %v", th.State, th.Fault)
	}
	if th.Instret != b.ex.counts[i] {
		return fmt.Errorf("retired %d instructions, model %d", th.Instret, b.ex.counts[i])
	}
	for r := range th.Regs {
		if err := b.same(l, th.Regs[r], b.ex.regs[i][r]); err != nil {
			return fmt.Errorf("r%d: %v", r, err)
		}
	}
	return nil
}

// same compares a machine word with the model's value; a model pointer
// names a segment and an offset, the machine's an address.
func (b *bench) same(l *live, w word.Word, v mval) error {
	if !v.ptr {
		if w.Tag || w.Int() != v.v {
			return fmt.Errorf("got %v, want integer %d", w, v.v)
		}
		return nil
	}
	p, err := core.Decode(w)
	want := l.ptrs[v.seg].Base() + uint64(v.v)
	if err != nil || p.Addr() != want {
		return fmt.Errorf("got %v, want pointer to %#x", w, want)
	}
	return nil
}

func (b *bench) checkMemory(l *live) error {
	for i, s := range b.in.segs {
		if s.code != nil {
			continue
		}
		sp := l.kerns[s.node].M.Space
		base := l.ptrs[i].Base()
		for j, v := range b.ex.mem[i] {
			va := base + uint64(j)*8
			pte, ok := sp.PT.Lookup(va)
			if !ok {
				return fmt.Errorf("segment %d word %d unmapped", i, j)
			}
			w, err := sp.Phys.ReadWord(pte.Frame | va&vm.PageMask)
			if err != nil {
				return err
			}
			if err := b.same(l, w, v); err != nil {
				return fmt.Errorf("segment %d word %d: %v", i, j, err)
			}
		}
	}
	return nil
}

// meshRun performs one program run on the parallel scheduler and one
// on the serial scheduler and checks that they agree exactly.
func (b *bench) meshRun(run int, pauses bool) {
	lp, cp, okp := b.programRun(run, pauses, false)
	ls, cs, oks := b.programRun(run, pauses, true)
	b.attempted++
	if lp == nil || ls == nil || !okp || !oks {
		b.fail("mesh run %d: a scheduler failed; parallel/serial comparison skipped", run)
		return
	}
	sp, err1 := signature(lp, cp)
	ss, err2 := signature(ls, cs)
	if err1 != nil || err2 != nil || sp != ss {
		b.fail("mesh run %d: parallel and serial schedulers disagree (%v %v)", run, err1, err2)
	}
}

// oneRun performs one program run of the workload.
func (b *bench) oneRun(run int, pauses bool) {
	if b.in.nodes > 1 {
		b.meshRun(run, pauses)
		return
	}
	b.programRun(run, pauses, false)
}

// warmUp runs the program once straight through (no durability
// operations), which also measures its length for the pause schedule.
func (b *bench) warmUp() {
	b.oneRun(0, false)
	b.total = b.acc.last.cycle
	b.chunk = b.total/pausesPerRun + 1
	b.acc = acc{}
}

// measure repeats timed program runs until seconds have passed, at
// least minTimedRuns ran, the delta captures number at least
// minCheckpoints and the restores at least restores, starting run ids
// at first.
func (b *bench) measure(seconds float64, first, restores int) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	a := &b.acc
	for i := 0; i < minTimedRuns || len(a.captureMs) < minCheckpoints || len(a.restoreMs) < restores || time.Now().Before(deadline); i++ {
		b.oneRun(first+i, true)
		b.acc.runs++
	}
}

// setupPhases records the duration of each setup step of the traced
// runs, in milliseconds.
func (b *bench) setupPhases() map[string][]float64 {
	out := make(map[string][]float64)
	for _, name := range []string{"asm.assemble", "capverify.verify", "kernel.boot", "kernel.load", "jit.register"} {
		for _, d := range b.tr.durations(name) {
			out[name] = append(out[name], ms(d))
		}
	}
	return out
}
