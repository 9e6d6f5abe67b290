package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/capverify"
	"repro/internal/jit"
)

// The idle-cycle skip (Run's jump to idleHorizon and whole-block
// execution's in-block wake-up) must be invisible: a machine driven by
// Run, in any chunking, with the translator on or off, ends in exactly
// the state of the interpreter driven one Step at a time.

// idleSweep walks a 256KB segment (twice the cache) at a 64-byte
// stride, loading and storing each line: every load misses, and the
// second half of the sweep evicts the dirty lines of the first.
const idleSweep = `
	ldi  r3, 4000
	mov  r4, r1
loop:
	ld   r2, r4, 0
	addi r2, r2, 1
	st   r4, 8, r2
	leai r4, r4, 64
	subi r3, r3, 1
	bnez r3, loop
	halt
`

// idleTrap traps every iteration; with TrapCost each trap blocks the
// thread for the kernel's handling time. TRAP never enters a compiled
// block, so the loop body before it is the block.
const idleTrap = `
	ldi  r3, 200
	mov  r4, r1
loop:
	ld   r2, r4, 0
	leai r4, r4, 64
	subi r3, r3, 1
	trap 7
	bnez r3, loop
	halt
`

// idleDataLog is the log2 size of each thread's data segment.
const idleDataLog = 18

type idleScenario struct {
	name    string
	src     string
	domains []int // one thread per entry, in that domain
	cfg     func(*Config)
	setup   func(*testing.T, *Machine)
}

var idleScenarios = []idleScenario{
	{name: "sweep", src: idleSweep, domains: []int{0}},
	{name: "trap", src: idleTrap, domains: []int{0}, setup: func(_ *testing.T, m *Machine) {
		m.OnTrap = func(*Machine, *Thread, int64) error { return nil }
	}},
	// Three threads on two clusters: cluster 0 swaps domains and
	// stalls while cluster 1's thread waits on its misses, so stalls
	// overlap idle windows.
	{name: "flush-tlb", src: idleSweep, domains: []int{0, 1, 2},
		cfg: func(c *Config) { c.Scheme = SchemeFlushTLB }},
	{name: "flush-all", src: idleSweep, domains: []int{0, 1, 2},
		cfg: func(c *Config) { c.Scheme = SchemeFlushAll }},
	{name: "wide", src: idleSweep, domains: []int{0},
		cfg: func(c *Config) { c.WideIssue = true }},
	{name: "scrub", src: idleSweep, domains: []int{0},
		cfg: func(c *Config) { c.ScrubEvery = 13; c.ScrubWords = 16 },
		setup: func(t *testing.T, m *Machine) {
			m.Space.Phys.EnableECC()
			for a := uint64(0xF0000); a < 0xF0400; a += 64 {
				if err := m.Space.Phys.FlipBit(a, 5); err != nil {
					t.Fatal(err)
				}
			}
		}},
}

// newIdleMachine builds sc's machine, with the translator when useJIT.
func newIdleMachine(t *testing.T, sc idleScenario, useJIT bool) *Machine {
	t.Helper()
	cfg := testConfig()
	cfg.PhysBytes = 4 << 20
	if sc.cfg != nil {
		sc.cfg(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if useJIT {
		m.EnableJIT(jit.DefaultConfig())
	}
	for i, dom := range sc.domains {
		base := uint64(0x10000 + i*0x1000)
		ip := loadAt(t, m, sc.src, base, false)
		if useJIT {
			m.JITRegister(mustAssemble(sc.src), base, capverify.Config{DataBytes: 1 << idleDataLog})
		}
		th, err := m.AddThread(dom)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.SetIP(ip); err != nil {
			t.Fatal(err)
		}
		th.SetReg(1, dataSeg(t, m, uint64(i+1)<<20, idleDataLog).Word())
	}
	if sc.setup != nil {
		sc.setup(t, m)
	}
	return m
}

// idleCap bounds every drive loop so a divergence cannot hang the test.
const idleCap = 5_000_000

// idleSnapshot renders everything a skip could perturb.
func idleSnapshot(m *Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d\nstats %+v\ncache %+v\ntlb %+v\nspace %+v\necc %+v\n",
		m.Cycle(), m.Stats(), m.Cache.Stats(), m.Space.TLB.Stats(), m.Space.Stats(),
		m.Space.Phys.ECCStats())
	for _, th := range m.Threads() {
		fmt.Fprintf(&b, "thread %d %v until %d instret %d ip %v fault %v\n  regs %v\n",
			th.ID, th.State, th.blockedUntil, th.Instret, th.IP, th.Fault, th.Regs)
	}
	return b.String()
}

func TestIdleSkipMatchesStepLoop(t *testing.T) {
	for _, sc := range idleScenarios {
		t.Run(sc.name, func(t *testing.T) {
			// marks holds the reference state at every multiple of
			// markEvery cycles, where Run(markEvery) chunks must agree
			// with it mid-run too.
			const markEvery = 1000
			var marks []string
			ref := newIdleMachine(t, sc, false)
			for !ref.Done() && ref.Cycle() < idleCap {
				ref.Step()
				if e := ref.scrubEvery; e != 0 && ref.Cycle()%e == 0 {
					ref.Space.Phys.ScrubStep(ref.scrubWords)
				}
				if ref.Cycle()%markEvery == 0 {
					marks = append(marks, idleSnapshot(ref))
				}
			}
			for _, th := range ref.Threads() {
				if th.State != Halted {
					t.Fatalf("reference thread %d: %v %v", th.ID, th.State, th.Fault)
				}
			}
			if ref.Stats().IdleCycles == 0 {
				t.Fatal("reference never idled: the scenario cannot exercise the skip")
			}
			want := idleSnapshot(ref)
			for _, useJIT := range []bool{false, true} {
				for _, chunk := range []uint64{1, 7, 1000, ^uint64(0)} {
					m := newIdleMachine(t, sc, useJIT)
					for i := 0; !m.Done() && m.Cycle() < idleCap; i++ {
						// Run consumes its whole budget unless the
						// machine finishes first.
						if n := m.Run(chunk); n > chunk || (n < chunk && !m.Done()) {
							t.Fatalf("jit=%v: Run(%d) ran %d cycles", useJIT, chunk, n)
						}
						if chunk == markEvery && !m.Done() {
							if got := idleSnapshot(m); got != marks[i] {
								t.Fatalf("jit=%v: state at cycle %d diverges from the Step loop:\n got %s\nwant %s",
									useJIT, m.Cycle(), got, marks[i])
							}
						}
					}
					if got := idleSnapshot(m); got != want {
						t.Fatalf("jit=%v chunk=%d diverges from the Step loop:\n got %s\nwant %s",
							useJIT, chunk, got, want)
					}
					if chunk == ^uint64(0) && m.skipped == 0 {
						t.Errorf("jit=%v: unbounded Run skipped no cycles", useJIT)
					}
					if useJIT && m.JIT().Counters.Entries == 0 {
						t.Errorf("chunk=%d: no compiled block ever entered", chunk)
					}
				}
			}
		})
	}
}
