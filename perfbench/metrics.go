package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// quantile is the linearly interpolated q-quantile of xs (0 if empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mips(instrs uint64, d time.Duration) float64 {
	return ratio(float64(instrs), d.Seconds()) / 1e6
}

// simMIPS returns the primary and serial-scheduler simulation rates of
// a phase: the median over its program runs, each run's instructions
// over its host time inside the run calls. A single kernel has only the
// serial machine loop, so both are the same measurement there.
func (a *acc) simMIPS(mesh bool) (float64, float64) {
	p := median(a.runMIPS)
	if !mesh {
		return p, p
	}
	return p, median(a.runMIPSSerial)
}

// endToEnd computes the untraced metrics of the timed runs.
func (b *bench) endToEnd() metrics {
	a := &b.acc
	m := make(metrics)
	mesh := b.in.nodes > 1
	par, ser := a.simMIPS(mesh)
	m.set("setup_s", "s", median(a.setupS))
	m.set("sim_mips", "Minstr/s", par)
	m.set("sim_mips_serial", "Minstr/s", ser)
	m.set("sim_ipc", "instr/cycle", ratio(float64(a.instrs), float64(a.cycles)))
	m.set("remote_lat_cycles", "cycles", b.remoteLatency())
	m.set("delta_capture_ms_p50", "ms", quantile(a.captureMs, 0.5))
	m.set("delta_capture_ms_p90", "ms", quantile(a.captureMs, 0.9))
	m.set("restore_ms_p50", "ms", median(a.restoreMs))
	m.set("migrate_ms_p50", "ms", median(a.migrateMs))
	m.set("migrate_stw_cycles", "cycles", mean(a.stwCycles))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	return m
}

// remoteLatency is the mean simulated latency of a message that leaves
// the issuing node's cache: on the mesh, the NoC latency per remote
// message; on a single node, whose only such traffic is the external
// memory interface, the cycles per miss fill (fill and writeback
// penalties plus queueing).
func (b *bench) remoteLatency() float64 {
	c := b.acc.last
	if b.in.nodes > 1 {
		return ratio(float64(c.net.TotalLatency), float64(c.net.Messages))
	}
	pen := b.in.node.Cache.MissPenalty
	return ratio(float64((c.c.Misses+c.c.Writebacks)*pen+c.c.MemWaitCycles), float64(c.c.Misses))
}

// perLayer computes the traced run's layer metrics. untraced is the
// phase measured with tracing off, for the overhead ratio.
func (b *bench) perLayer(untraced *acc, rp replayResult, shares map[string]float64) metrics {
	a := &b.acc
	c := a.last
	m := make(metrics)
	mesh := b.in.nodes > 1
	runs := float64(a.runs)
	simNs := float64(a.sim.Nanoseconds())

	ph := b.setupPhases()
	m.set("asm.assemble_ms", "ms", median(ph["asm.assemble"]))
	m.set("asm.words", "count", float64(a.verdict.words))
	m.set("capverify.verify_ms", "ms", median(ph["capverify.verify"]))
	m.set("capverify.sites", "count", float64(a.verdict.sites))
	m.set("capverify.discharged_ratio", "ratio", ratio(float64(a.verdict.safe), float64(a.verdict.safe+a.verdict.unknown)))
	m.set("kernel.boot_ms", "ms", median(ph["kernel.boot"]))
	m.set("kernel.load_ms", "ms", median(ph["kernel.load"]))
	m.set("jit.register_ms", "ms", median(ph["jit.register"]))

	m.set("machine.instructions", "count", float64(c.m.Instructions))
	m.set("machine.cycles", "count", float64(c.m.Cycles))
	m.set("machine.idle_cycles", "count", float64(c.m.IdleCycles))
	m.set("machine.switches", "count", float64(c.m.Switches))
	m.set("machine.domain_swaps", "count", float64(c.m.DomainSwaps))
	m.set("machine.run_ns_per_instr", "ns", ratio(simNs, runs*float64(c.m.Instructions)))
	m.set("jit.compiled", "count", float64(c.j.Compiled))
	m.set("jit.entries", "count", float64(c.j.Entries))
	m.set("jit.invalidated", "count", float64(c.j.Invalidated))
	m.set("jit.elided_sites", "count", float64(c.j.ElidedSites))
	m.set("jit.retained_sites", "count", float64(c.j.RetainedSites))
	m.set("jit.instr_per_entry", "instr", ratio(float64(c.m.Instructions), float64(c.j.Entries)))

	dataRefs := float64(c.c.Accesses)
	m.set("core.lea_ns", "ns", rp.lea.ns)
	m.set("core.check_ns", "ns", rp.check.ns)
	m.set("core.replay_coverage", "ratio", ratio(float64(rp.check.stream), dataRefs))

	m.set("vm.translations", "count", float64(c.s.Translations))
	m.set("vm.page_walks", "count", float64(c.s.PageWalks))
	m.set("vm.page_faults", "count", float64(c.s.PageFaults))
	m.set("vm.tlb_hit_ratio", "ratio", ratio(float64(c.tlb.Hits), float64(c.tlb.Hits+c.tlb.Misses)))
	m.set("vm.translate_ns", "ns", rp.translate.ns)
	m.set("vm.replay_coverage", "ratio", ratio(float64(rp.translate.stream), float64(c.s.Translations)))
	m.set("vm.share_est", "ratio", ratio(runs*float64(c.s.Translations)*rp.translate.ns, simNs))

	var maxBank, sumBank float64
	for _, n := range c.c.BankAccesses {
		maxBank = math.Max(maxBank, float64(n))
		sumBank += float64(n)
	}
	m.set("cache.accesses", "count", dataRefs)
	m.set("cache.hit_ratio", "ratio", ratio(float64(c.c.Hits), dataRefs))
	m.set("cache.writebacks", "count", float64(c.c.Writebacks))
	m.set("cache.conflict_cycles", "cycles", float64(c.c.ConflictCycles))
	m.set("cache.mem_wait_cycles", "cycles", float64(c.c.MemWaitCycles))
	m.set("cache.bank_imbalance", "ratio", ratio(maxBank, sumBank/float64(max(len(c.c.BankAccesses), 1))))
	m.set("cache.access_ns", "ns", rp.access.ns)
	m.set("cache.replay_coverage", "ratio", ratio(float64(rp.access.stream), dataRefs))
	m.set("cache.share_est", "ratio", ratio(runs*dataRefs*rp.access.ns, simNs))
	m.set("mem.read_ns", "ns", rp.memRead.ns)
	m.set("mem.replay_coverage", "ratio", ratio(float64(rp.memRead.stream), dataRefs))

	m.set("multi.remote_reads", "count", float64(c.mesh.RemoteReads))
	m.set("multi.remote_writes", "count", float64(c.mesh.RemoteWrites))
	m.set("multi.cycle_us", "us", ratio(simNs/1e3, runs*float64(c.cycle)))
	speedup := 1.0
	if mesh {
		speedup = ratio(mips(a.instrs, a.sim), mips(a.instrsSerial, a.simSerial))
	}
	m.set("multi.parallel_speedup", "ratio", speedup)
	m.set("noc.messages", "count", float64(c.net.Messages))
	m.set("noc.mean_hops", "hops", ratio(float64(c.net.TotalHops), float64(c.net.Messages)))
	m.set("noc.contention_cycles", "cycles", float64(c.net.ContentionCycles))
	m.set("noc.send_ns", "ns", rp.send.ns)
	m.set("noc.replay_coverage", "ratio", ratio(float64(rp.send.stream), float64(c.net.Messages)))

	m.set("persist.checkpoint_wall_ms_p50", "ms", quantile(a.checkpointMs, 0.5))
	m.set("persist.checkpoint_wall_ms_p90", "ms", quantile(a.checkpointMs, 0.9))
	m.set("persist.capture_ms", "ms", median(durMs(b.tr.durations("persist.capture"))))
	m.set("persist.base_capture_ms", "ms", median(a.baseCaptureMs))
	m.set("persist.encode_ms", "ms", median(a.encodeMs))
	m.set("persist.decode_ms", "ms", median(a.decodeMs))
	m.set("persist.delta_bytes", "B", median(a.deltaBytes))
	m.set("persist.base_bytes", "B", median(a.baseBytes))
	m.set("persist.generations", "count", float64(a.lastGenerations))
	m.set("migrate.rounds", "count", median(a.migRounds))
	m.set("migrate.wire_bytes", "B", median(a.migWire))
	m.set("migrate.retransmits", "count", float64(a.migRetransmits))
	m.set("migrate.self_ms", "ms", median(durMs(b.tr.selfOf("migrate.run"))))
	m.set("migrate.frame_codec_us", "us", median(a.frameCodecUs))

	for _, mod := range profileModules {
		m.set(mod+".profile_share", "ratio", shares[mod])
	}
	// Wall time on both sides: while the CPU profiler runs, the kernel
	// advances the process CPU clock only at scheduler ticks.
	m.set("trace.mips_ratio", "ratio", ratio(mips(a.instrs, a.sim), mips(untraced.instrs, untraced.sim)))
	m.set("trace.spans", "count", float64(b.tr.spansOfRun(b.tr.run)))
	return m
}

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
