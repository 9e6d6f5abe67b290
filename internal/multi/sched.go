package multi

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Lockstep scheduling. Every system cycle has a step phase, in which
// each live node executes one machine cycle touching only its own state
// (remote references are parked on the issuing node), and a delivery
// phase, in which the parked references complete in node-id order on
// one goroutine. Step runs both phases on the caller; Run can spread the
// step phase over a pool of workers. Both go through blocks.step and
// deliver, so they are bit-identical by construction.
//
// Nodes are split into contiguous blocks, one per worker. While stepping
// its block a worker packs into one report word which of its nodes
// parked remote traffic and whether any is unfinished. Delivery visits
// only the flagged nodes and the termination check reads only the
// reports, so a cycle without remote traffic touches no other worker's
// nodes.

// Gate tuning. A waiter polls the word it waits on up to its spin
// budget, then yields the processor gateYields times, then parks on a
// condition variable. A cycle of the 2×2×2 mesh takes about a
// microsecond of host time, so the full budget (about 50µs of polling)
// covers a normal hand-off and a host hiccup. Spinning is a bet that
// the other side is running; when it is not — its processor is taken by
// other goroutines or processes — a spinner only burns time the other
// side needs. So a wait that outlasts its budget quarters it (down to
// gateMinSpins), a wait that ends within it doubles it, and every
// gateProbe waits it doubles anyway, to find out whether the
// processors came back. When a Run has more workers than GOMAXPROCS,
// waiters park at once.
const (
	gateSpins    = 1 << 16
	gateMinSpins = 64
	gateYields   = 4
	gateProbe    = 16
)

// schedStats counts the parallel scheduler's hand-offs: the lockstep
// cycles it ran and how each wait at the gate ended. Every worker waits
// once per cycle (helpers for the release, the calling goroutine for the
// gather), so Spins+Yields+Parks is about Cycles × workers.
type schedStats struct {
	Cycles uint64 // cycles stepped through the gate
	Spins  uint64 // waits satisfied while spinning
	Yields uint64 // waits satisfied after yielding the processor
	Parks  uint64 // waits that slept on the condition variable
}

// slot is one worker's block of nodes and its per-cycle report. The
// report is one word, published with one atomic store, so worker 0
// picks up a helper's whole step phase with one cache-line transfer.
// The worker's own counters sit on a second line that worker 0 does
// not read during a run.
type slot struct {
	report atomic.Uint64 // see the rep* constants
	lo, hi int           // the block: node ids [lo, hi)
	_      [64 - 3*8]byte
	waiter
	_ [64 - 6*8]byte
}

// waiter is one worker's side of the gate: its adaptive spin budget and
// how its waits ended.
type waiter struct {
	budget int  // polls before yielding
	waits  uint // waits so far, for the periodic probe
	schedStats
}

// A report word: the high half is the sequence number of the release
// the step phase answered (it doubles as the ready signal), bit
// repUnfinished says some node of the block has unfinished threads, and
// bit k below it says node lo+k parked remote traffic — the top pending
// bit, repOverflow, also stands for every node past it.
const (
	repUnfinished = 1 << 31
	repOverflow   = 30
	repPend       = 1<<(repOverflow+1) - 1
)

// seq is the sequence number of a report or release word.
func seq(v uint64) uint32 { return uint32(v >> 32) }

// layout splits the nodes into nw contiguous blocks, keeping the current
// layout when it already has nw blocks.
func (s *System) layout(nw int) {
	if len(s.slots) == nw {
		return
	}
	n := len(s.Nodes)
	s.slots = make([]slot, nw)
	for w := range s.slots {
		sl := &s.slots[w]
		sl.lo, sl.hi = w*n/nw, (w+1)*n/nw
		sl.budget = gateSpins
	}
	s.reportsOK = false
}

// blocks is what the step phase reads: the nodes, the kill and stall
// tables, which change only between cycles, and the workers' slots.
// The parallel gate carries a copy, so helpers read it from the line
// that releases them rather than from System fields worker 0 writes.
type blocks struct {
	nodes      []*Node
	dead       []bool
	stallUntil []uint64
	slots      []slot
}

func (s *System) blocks() blocks {
	return blocks{nodes: s.Nodes, dead: s.dead, stallUntil: s.stallUntil, slots: s.slots}
}

// step runs the step phase of worker w's block at system cycle cycle
// and publishes its report under sequence number sq. Stalled and dead
// nodes are not stepped but are still reported: Done counts them, and
// deliver decides what to do with their traffic.
func (b *blocks) step(w int, cycle uint64, sq uint32) {
	sl := &b.slots[w]
	rep := uint64(sq) << 32
	for i := sl.lo; i < sl.hi; i++ {
		m := b.nodes[i].K.M
		if !b.dead[i] && b.stallUntil[i] <= cycle {
			m.Step()
		}
		if m.RemotePending() != 0 {
			rep |= 1 << min(i-sl.lo, repOverflow)
		}
		if rep&repUnfinished == 0 && !m.Done() {
			rep |= repUnfinished
		}
	}
	sl.report.Store(rep)
}

// Step advances every live node one cycle in lockstep, then delivers
// the cycle's remote traffic.
func (s *System) Step() {
	if s.slots == nil {
		s.layout(1)
	}
	b := s.blocks()
	for w := range b.slots {
		// Keep the report's sequence number: a Step between parallel
		// cycles (the armed migration's) must not answer a release.
		b.step(w, s.cycle, seq(b.slots[w].report.Load()))
	}
	s.deliver()
}

// deliver completes every remote access issued this cycle, visiting the
// nodes the step phase flagged in id order (blocks are contiguous and
// in order). During the step phase nodes touch only their own state, so
// all cross-node effects — mesh link reservations, home-cache
// contention, traffic counters — happen here, in one deterministic
// order, no matter how the step phase was scheduled. It then retires
// the cycle: checkpoints, the watchdog progress check and the OnCycle
// hook all run here, on the calling goroutine.
func (s *System) deliver() {
	// A completion that faults the last live thread of a node makes the
	// reports stale; none can make a finished node unfinished.
	stale := false
	for w := range s.slots {
		sl := &s.slots[w]
		for p := sl.report.Load() & repPend; p != 0; p &= p - 1 {
			k := bits.TrailingZeros64(p)
			last := sl.lo + k
			if k == repOverflow {
				last = sl.hi - 1
			}
			for i := sl.lo + k; i <= last; i++ {
				stale = s.service(i) || stale
			}
		}
	}
	s.cycle++
	hooked := false
	if s.cfg.CheckpointEvery != 0 && s.cycle%s.cfg.CheckpointEvery == 0 {
		s.checkpointAll()
		hooked = true
	}
	if s.cfg.WatchdogCycles > 0 && s.cycle&63 == 0 {
		s.checkProgress()
		hooked = true
	}
	if s.OnCycle != nil {
		s.OnCycle(s.cycle)
		hooked = true
	}
	// A hook may have killed, restored or reloaded nodes: the reports
	// are stale until the next step phase.
	s.reportsOK = !hooked && !stale
}

// service completes node i's parked remote traffic, if any, and
// reports whether that finished the node.
func (s *System) service(i int) bool {
	m := s.Nodes[i].K.M
	if s.dead[i] || m.RemotePending() == 0 {
		return false
	}
	m.ServiceRemote()
	return m.Done()
}

// Done reports whether all threads on all nodes have finished.
func (s *System) Done() bool {
	for _, n := range s.Nodes {
		if !n.K.M.Done() {
			return false
		}
	}
	return true
}

// finished is Done answered from the workers' reports when they are
// current, from the nodes otherwise.
func (s *System) finished() bool {
	if !s.reportsOK {
		return s.Done()
	}
	for w := range s.slots {
		if s.slots[w].report.Load()&repUnfinished != 0 {
			return false
		}
	}
	return true
}

// Run steps until every node's threads are done or maxCycles elapse,
// returning cycles executed. Nodes are stepped by a pool of workers
// meeting at a per-cycle gate; Config.Serial selects the
// single-goroutine scheduler instead. Both produce bit-identical
// machines.
func (s *System) Run(maxCycles uint64) uint64 {
	// Nodes may have changed since the last cycle (loads, kills, stalls,
	// revivals between Run calls): the first check reads them.
	s.reportsOK = false
	if !s.cfg.Serial && s.workerCount() > 1 {
		return s.runParallel(maxCycles)
	}
	return s.runSerial(maxCycles)
}

func (s *System) runSerial(maxCycles uint64) uint64 {
	var c uint64
	for c < maxCycles && !s.finished() && !s.hung {
		s.Step()
		c++
		// The armed migration steps the system itself (pre-copy overlaps
		// execution); those cycles count against this Run's budget.
		c += s.maybeMigrate()
	}
	return c
}

// workerCount resolves Config.Workers: bounded by the node count, and
// by GOMAXPROCS when unset.
func (s *System) workerCount() int {
	w := s.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(s.Nodes) {
		w = len(s.Nodes)
	}
	return w
}

// runParallel is Run on nw workers. The calling goroutine is worker 0:
// each cycle it releases the helpers, steps its own block, gathers the
// helpers' reports, and alone runs deliver, the hooks and the
// termination check while the helpers wait for the next release. A
// helper's report store publishes its nodes' state to worker 0, and
// worker 0's release store publishes everything it wrote (nodes,
// kill/stall state, the cycle, stop) to the helpers.
func (s *System) runParallel(maxCycles uint64) uint64 {
	nw := s.workerCount()
	s.layout(nw)
	g := &gate{blocks: s.blocks(), spin: nw <= runtime.GOMAXPROCS(0)}
	g.relPark.cond.L = &g.relPark.mu
	g.gatherPark.cond.L = &g.gatherPark.mu
	var wg sync.WaitGroup
	wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go g.helper(w, &wg)
	}
	w0 := &s.slots[0].waiter
	var c, e uint64 // cycles run, cycles released through the gate
	for c < maxCycles && !s.finished() && !s.hung {
		e++
		g.cycle = s.cycle
		g.open(uint32(e))
		g.step(0, s.cycle, uint32(e))
		for w := 1; w < nw; w++ {
			g.wait(&s.slots[w].report, uint32(e), &g.gatherPark, w0)
		}
		s.deliver()
		c++
		// The helpers wait for the next release, so the armed migration
		// may step the system serially from here — bit-identical to the
		// parallel schedule by the package invariant.
		c += s.maybeMigrate()
	}
	g.stop = true
	g.open(uint32(e + 1))
	wg.Wait()
	s.sched.Cycles += e
	for w := range s.slots {
		sl := &s.slots[w]
		s.sched.Spins += sl.Spins
		s.sched.Yields += sl.Yields
		s.sched.Parks += sl.Parks
		sl.schedStats = schedStats{}
		// The next Run numbers its releases from 1 again.
		sl.report.Store(0)
	}
	s.reportsOK = false
	return c
}

// gate hands each cycle from worker 0 to the helpers (the release word)
// and back (each helper's report word). Both carry the cycle's sequence
// number in their high half and a waiter waits for an exact number, so
// nothing is reset between cycles and a wait allocates nothing.
type gate struct {
	// The release line: written by worker 0 once per cycle, polled by
	// the helpers, and holding all they read to run their step phase.
	release atomic.Uint64 // the latest release number, in the high half
	cycle   uint64        // system cycle of the latest release
	stop    bool          // set by worker 0 before the final release
	spin    bool          // false when workers outnumber processors: park at once
	blocks

	relPark    parking // helpers waiting for a release
	gatherPark parking // worker 0 waiting for the reports
}

// parking is where waiters sleep once their spin budget is spent. It is
// padded so that sleeping on one direction of the gate does not touch
// the other's line.
type parking struct {
	sleepers atomic.Int32
	mu       sync.Mutex
	cond     sync.Cond
	_        [64]byte
}

// helper is worker w (w ≥ 1) of runParallel: step the block on each
// release and report it, until worker 0 releases with stop set. Only
// the helper whose report completes the cycle wakes a parked worker 0:
// each stores its report before it reads the sleepers, so the last
// store in the (sequentially consistent) order of atomics sees every
// other report and worker 0's registration as a sleeper.
func (g *gate) helper(w int, wg *sync.WaitGroup) {
	defer wg.Done()
	sl := &g.slots[w]
	for sq := uint32(1); ; sq++ {
		g.wait(&g.release, sq, &g.relPark, &sl.waiter)
		if g.stop {
			return
		}
		g.step(w, g.cycle, sq)
		if g.gatherPark.sleepers.Load() != 0 && g.reported(sq) {
			g.gatherPark.wake()
		}
	}
}

// reported reports whether every helper has answered release sq.
func (g *gate) reported(sq uint32) bool {
	for w := 1; w < len(g.slots); w++ {
		if seq(g.slots[w].report.Load()) != sq {
			return false
		}
	}
	return true
}

// wait returns once *word carries sequence number sq: spin, then
// yield, then park on pk, adapting wt's budget and counting how the
// wait ended; without spin it parks at once. A parked waiter registers as a sleeper before its last
// check of the word, and a publisher stores the word before it reads
// the sleepers, so one of them sees the other. The other side cannot
// move past sq until this side answers, so equality is the whole test,
// and it survives the number wrapping.
func (g *gate) wait(word *atomic.Uint64, sq uint32, pk *parking, wt *waiter) {
	if g.spin {
		if wt.waits++; wt.waits%gateProbe == 0 {
			wt.budget = min(2*wt.budget, gateSpins)
		}
		for i := 0; i < wt.budget; i++ {
			if seq(word.Load()) == sq {
				wt.Spins++
				wt.budget = min(2*wt.budget, gateSpins)
				return
			}
		}
		wt.budget = max(wt.budget/4, gateMinSpins)
		for i := 0; i < gateYields; i++ {
			runtime.Gosched()
			if seq(word.Load()) == sq {
				wt.Yields++
				return
			}
		}
	}
	pk.mu.Lock()
	pk.sleepers.Add(1)
	for seq(word.Load()) != sq {
		pk.cond.Wait()
	}
	pk.sleepers.Add(-1)
	pk.mu.Unlock()
	wt.Parks++
}

// open publishes release number sq and wakes the parked helpers.
func (g *gate) open(sq uint32) {
	g.release.Store(uint64(sq) << 32)
	if g.relPark.sleepers.Load() != 0 {
		g.relPark.wake()
	}
}

func (pk *parking) wake() {
	pk.mu.Lock()
	pk.cond.Broadcast()
	pk.mu.Unlock()
}
