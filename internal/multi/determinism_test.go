package multi

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/noc"
	"repro/internal/word"
)

// fingerprint captures everything externally observable about a
// finished multicomputer run: cycles, the aggregate and per-node
// counters, every thread's architectural state, and the memory words
// the workload touched.
type fingerprint struct {
	cycles    uint64
	sys       Stats
	net       noc.Stats
	nodeStats []machine.Stats
	threads   string
	memory    string
}

// runCrossNodeWorkload boots a system where every node runs a thread
// hammering its ring successor's segment with remote stores and loads —
// each cycle's barrier has traffic from many nodes, so any
// serial/parallel divergence in delivery order or link contention shows
// up in the counters and final state.
func runCrossNodeWorkload(t *testing.T, serial bool, workers int) fingerprint {
	t.Helper()
	return runCrossNodeWorkloadWith(t, serial, workers, nil)
}

// runCrossNodeWorkloadWith is runCrossNodeWorkload with a hook that
// configures the freshly booted system before any workload is loaded
// (the introspection tests enable spans/flight from here).
func runCrossNodeWorkloadWith(t *testing.T, serial bool, workers int, setup func(*System)) fingerprint {
	t.Helper()
	return crossNode{serial: serial, workers: workers, setup: setup}.run(t)
}

// crossNode parameterizes the cross-node determinism workload.
type crossNode struct {
	serial  bool
	workers int
	trips   int                  // base loop trip count; 0 means 4
	config  func(*Config)        // adjusts the configuration before boot
	setup   func(*System)        // configures the booted system before loading
	drive   func(*System) uint64 // runs the loaded system; nil means Run(200000)
	// hangs allows threads to end unfinished (a killed home loses
	// their replies).
	hangs bool
}

func (c crossNode) run(t *testing.T) fingerprint {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Node.PhysBytes = 1 << 20
	cfg.Serial = c.serial
	cfg.Workers = c.workers
	if c.config != nil {
		c.config(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.setup != nil {
		c.setup(s)
	}
	trips := c.trips
	if trips == 0 {
		trips = 4
	}
	n := len(s.Nodes)
	segs := make([]core.Pointer, n)
	for i, nd := range s.Nodes {
		p, err := nd.K.AllocSegment(4096)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = p
	}
	prog := mustAssemble(`
		ldi r3, 0          ; accumulator
	loop:
		st  r1, 0, r2      ; remote store of the loop counter
		ld  r4, r1, 0      ; remote load back
		add r3, r3, r4
		st  r1, 8, r3      ; second remote word: the running sum
		subi r2, r2, 1
		bnez r2, loop
		halt
	`)
	for i, nd := range s.Nodes {
		ip, err := nd.K.LoadProgram(prog, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nd.K.Spawn(1, ip, map[int]word.Word{
			1: segs[(i+1)%n].Word(),             // ring successor's segment
			2: word.FromInt(int64(trips + i%3)), // staggered trip counts
		}); err != nil {
			t.Fatal(err)
		}
	}
	var cycles uint64
	if c.drive != nil {
		cycles = c.drive(s)
	} else {
		cycles = s.Run(200000)
	}
	fp := fingerprint{cycles: cycles, sys: s.Stats(), net: s.Net.Stats()}
	// Threads are read from the nodes' current kernels: a migration
	// swaps a node's kernel for its replica.
	for i, nd := range s.Nodes {
		fp.nodeStats = append(fp.nodeStats, nd.K.M.Stats())
		for _, th := range nd.K.M.Threads() {
			if th.State != machine.Halted && !c.hangs {
				t.Fatalf("serial=%v: node %d thread %v fault=%v", c.serial, i, th.State, th.Fault)
			}
			fp.threads += fmt.Sprintf("%d: %v instret=%d regs=%v\n", i, th.State, th.Instret, th.Regs)
		}
	}
	for i, nd := range s.Nodes {
		home := segs[i].Base()
		for off := uint64(0); off < 16; off += 8 {
			w, err := nd.K.M.Space.ReadWord(home + off)
			if err != nil {
				t.Fatal(err)
			}
			fp.memory += fmt.Sprintf("%d+%d: %v\n", i, off, w)
		}
	}
	return fp
}

// TestParallelRunMatchesSerial: the parallel scheduler must be
// bit-identical to serial stepping — same cycle count, same machine and
// network statistics, same registers, same memory. Workers is forced
// above 1 so runParallel is exercised even on a single-core host; the
// Makefile race gate runs this under -race.
func TestParallelRunMatchesSerial(t *testing.T) {
	serial := runCrossNodeWorkload(t, true, 0)
	parallel := runCrossNodeWorkload(t, false, 4)
	if serial.cycles != parallel.cycles {
		t.Errorf("cycles: serial %d parallel %d", serial.cycles, parallel.cycles)
	}
	if serial.sys != parallel.sys {
		t.Errorf("system stats:\nserial   %+v\nparallel %+v", serial.sys, parallel.sys)
	}
	if serial.net != parallel.net {
		t.Errorf("network stats:\nserial   %+v\nparallel %+v", serial.net, parallel.net)
	}
	for i := range serial.nodeStats {
		if serial.nodeStats[i] != parallel.nodeStats[i] {
			t.Errorf("node %d stats:\nserial   %+v\nparallel %+v", i, serial.nodeStats[i], parallel.nodeStats[i])
		}
	}
	if serial.threads != parallel.threads {
		t.Errorf("thread state:\nserial:\n%sparallel:\n%s", serial.threads, parallel.threads)
	}
	if serial.memory != parallel.memory {
		t.Errorf("memory:\nserial:\n%sparallel:\n%s", serial.memory, parallel.memory)
	}
}

// TestParallelRunMatchesSerialAcrossWorkerCounts: determinism must not
// depend on how nodes are partitioned over workers.
func TestParallelRunMatchesSerialAcrossWorkerCounts(t *testing.T) {
	base := runCrossNodeWorkload(t, true, 0)
	for _, w := range []int{2, 3, 8} {
		got := runCrossNodeWorkload(t, false, w)
		if base.cycles != got.cycles || base.sys != got.sys || base.net != got.net ||
			base.threads != got.threads || base.memory != got.memory {
			t.Errorf("workers=%d diverges from serial", w)
		}
	}
}

// parallelWorkers are the worker counts every TestParallelRun case
// checks against the serial scheduler: an even split, an uneven one,
// and one node per worker (more workers than most hosts have
// processors, so the gate parks).
var parallelWorkers = []int{2, 3, 8}

// matchSerial runs c under the serial scheduler and then under the
// parallel one at each of parallelWorkers, and fails unless every run's
// fingerprint and extra (a hook's record, read after the run) are
// byte-identical to serial.
func matchSerial(t *testing.T, c crossNode, extra func() string) {
	t.Helper()
	render := func(c crossNode) string {
		fp := c.run(t)
		out := fmt.Sprintf("%+v", fp)
		if extra != nil {
			out += "\n" + extra()
		}
		return out
	}
	c.serial = true
	want := render(c)
	for _, w := range parallelWorkers {
		c.serial, c.workers = false, w
		if got := render(c); got != want {
			t.Errorf("workers=%d diverges from serial:\n got %s\nwant %s", w, got, want)
		}
	}
}

// TestParallelRunChunkedMatchesSerial: one budget spent as many short
// Run calls, as the benchmark and migration pre-copy drive the system,
// ends in the same state as serial stepping. Each call starts a fresh
// gate, so a stale report or release number would show here.
func TestParallelRunChunkedMatchesSerial(t *testing.T) {
	for _, chunk := range []uint64{1, 7, 64} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			matchSerial(t, crossNode{trips: 6, drive: func(s *System) uint64 {
				var c uint64
				for c < 200000 && !s.Done() {
					c += s.Run(chunk)
				}
				return c
			}}, nil)
		})
	}
}

// TestParallelRunHooksMatchSerial: every hook that runs between cycles
// — OnCycle, coordinated checkpoints, the watchdog and an armed
// migration — sees and leaves the same state under both schedulers.
func TestParallelRunHooksMatchSerial(t *testing.T) {
	t.Run("OnCycle", func(t *testing.T) {
		var rec []string
		matchSerial(t, crossNode{trips: 6, setup: func(s *System) {
			rec = nil
			s.OnCycle = func(c uint64) {
				if c%16 == 0 {
					rec = append(rec, fmt.Sprintf("%d:%+v", c, s.Stats()))
				}
			}
		}}, func() string { return fmt.Sprint(rec) })
	})
	t.Run("CheckpointEvery", func(t *testing.T) {
		var sys *System
		matchSerial(t, crossNode{trips: 6,
			config: func(c *Config) { c.CheckpointEvery = 250 },
			setup:  func(s *System) { sys = s },
		}, func() string {
			gens := fmt.Sprint(sys.Checkpoints())
			for _, g := range sys.ckpts {
				gens += fmt.Sprintf(" @%d", g.cycle)
			}
			return gens
		})
	})
	t.Run("WatchdogCycles", func(t *testing.T) {
		var sys *System
		matchSerial(t, crossNode{trips: 6,
			config: func(c *Config) { c.WatchdogCycles = 256 },
			setup:  func(s *System) { sys = s },
		}, func() string { return fmt.Sprint("hung=", sys.Hung()) })
	})
	t.Run("MigrateAt", func(t *testing.T) {
		var sys *System
		matchSerial(t, crossNode{trips: 40,
			config: func(c *Config) {
				c.MigrateAt = 60
				c.MigrateNode = 5
				c.Migrate = migrate.Config{Link: fastLink()}
			},
			setup: func(s *System) { sys = s },
		}, func() string {
			rep := sys.MigrateReport()
			if rep == nil || !rep.Committed {
				t.Fatalf("migration did not commit: %+v", rep)
			}
			return fmt.Sprintf("stepped=%d rounds=%d", rep.SteppedCycles, len(rep.Rounds))
		})
	})
}

// TestParallelRunStallKillMatchesSerial: a stall and a kill issued
// between Run calls take effect at the same cycle under both
// schedulers. The kill loses the replies of the killed node's ring
// predecessor, so that thread never finishes and the last call spends
// its whole budget.
func TestParallelRunStallKillMatchesSerial(t *testing.T) {
	matchSerial(t, crossNode{trips: 6, hangs: true, drive: func(s *System) uint64 {
		c := s.Run(40)
		if err := s.Stall(2, s.Cycle()+30); err != nil {
			t.Fatal(err)
		}
		c += s.Run(50)
		if err := s.Kill(5); err != nil {
			t.Fatal(err)
		}
		return c + s.Run(2000)
	}}, nil)
}

// TestParallelRunTracksDoneExactly: Run stops on the cycle the system
// finishes, by the same count as stepping one cycle at a time and
// asking Done — when threads are added between Run calls, when the
// last thread ends inside the delivery phase (a remote access that
// faults), and when an OnCycle hook adds a thread on the cycle the
// system finishes.
func TestParallelRunTracksDoneExactly(t *testing.T) {
	far := mustMake(core.PermReadWrite, 12, uint64(50)<<NodeShift)
	faulting := mustAssemble("ld r2, r1, 0\nhalt")
	countdown := mustAssemble("ldi r3, 40\nloop: subi r3, r3, 1\nbnez r3, loop\nhalt")
	spawn := func(s *System, node int, prog *asm.Program, regs map[int]word.Word) {
		ip, err := s.Nodes[node].K.LoadProgram(prog, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Nodes[node].K.Spawn(1, ip, regs); err != nil {
			t.Fatal(err)
		}
	}
	// phases loads each phase's threads and runs the system to done
	// with run, returning the cycles of each phase.
	phases := func(workers int, run func(*System) uint64) []uint64 {
		cfg := DefaultConfig()
		cfg.Node.PhysBytes = 1 << 20
		cfg.Serial = workers == 0
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spawn(s, 3, countdown, nil)
		out := []uint64{run(s)}
		spawn(s, 0, faulting, map[int]word.Word{1: far.Word()})
		out = append(out, run(s))
		spawn(s, 3, countdown, nil)
		respawned := false
		s.OnCycle = func(uint64) {
			if !respawned && s.Done() {
				respawned = true
				spawn(s, 6, countdown, nil)
			}
		}
		return append(out, run(s))
	}
	want := fmt.Sprint(phases(0, func(s *System) uint64 {
		var c uint64
		for !s.Done() {
			s.Step()
			c++
		}
		return c
	}))
	for _, w := range append([]int{0}, parallelWorkers...) {
		got := fmt.Sprint(phases(w, func(s *System) uint64 { return s.Run(100000) }))
		if got != want {
			t.Errorf("workers=%d: Run took %s cycles per phase, stepping to Done %s", w, got, want)
		}
	}
}

// TestSchedulerCyclesAllocFree: once warm, a lockstep cycle on the
// parallel scheduler allocates nothing — a Run of 1000 cycles costs no
// more allocations than a Run of 10 (only the per-Run goroutines and
// gate).
func TestSchedulerCyclesAllocFree(t *testing.T) {
	crossNode{workers: 2, trips: 1 << 40, hangs: true, drive: func(s *System) uint64 {
		s.Run(1000) // warm: page mappings, pending-queue capacity
		short := testing.AllocsPerRun(20, func() { s.Run(10) })
		long := testing.AllocsPerRun(20, func() { s.Run(1000) })
		if long > short {
			t.Fatalf("Run(1000) allocates %v times, Run(10) %v: cycles allocate", long, short)
		}
		if s.Done() || s.sched.Cycles == 0 {
			t.Fatalf("parallel scheduler did not run: done=%v %+v", s.Done(), s.sched)
		}
		return 0
	}}.run(t)
}
