package machine

import (
	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/jit"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// This file is the executor for internal/jit's compiled superblocks:
// the machine-side half of the compiled execution tier. A Step is pure
// data; running it needs the machine's cache, address space, fault
// routing and cycle accounting, so the per-kind switch lives here.
//
// Equivalence contract with the interpreter (exec.go), per step:
//   - the fetch address is translated exactly once (the decoded-cache
//     hit path), so vm/TLB counters and page-fault behavior match;
//   - elided steps perform the same Cache/Space accesses with the same
//     m.now stamps, writing the same register values the checked path
//     would produce when its checks pass (which capverify proved);
//   - retained steps run the interpreter's own dispatch;
//   - faults, blocking, and retirement use the interpreter's helpers.
// Under that contract architectural state, stats, and cycle counts are
// bit-identical with the translator on or off.

// EnableJIT installs a superblock translator on the machine and returns
// it. The Space invalidation hooks are extended so stores into
// registered code and unmaps invalidate compiled blocks alongside the
// decoded-instruction cache. Call before RegisterMetrics to get the
// jit.* counters published.
func (m *Machine) EnableJIT(cfg jit.Config) *jit.Engine {
	m.jit = jit.New(cfg)
	m.Space.OnWrite = func(vaddr uint64) {
		m.invalidateDecodedWord(vaddr)
		m.jit.InvalidateWrite(vaddr)
	}
	m.Space.OnUnmap = func(vaddr, size uint64) {
		m.FlushDecoded()
		m.jit.InvalidateUnmap(vaddr, size)
	}
	return m.jit
}

// JIT returns the translator, or nil when EnableJIT has not run.
func (m *Machine) JIT() *jit.Engine { return m.jit }

// JITRegister registers a loaded program's code with the translator; a
// no-op without EnableJIT. base is the load address of the program's
// code segment and vcfg must describe the environment the program runs
// under — see jit.Engine.Register for the soundness contract.
func (m *Machine) JITRegister(prog *asm.Program, base uint64, vcfg capverify.Config) {
	if m.jit != nil {
		m.jit.Register(prog, base, vcfg)
	}
}

// jitStep runs the thread's next instruction(s) from a compiled block,
// returning false when the interpreter should run instead: no block
// covers the IP, or a per-instruction observation hook is installed
// (those see every dispatched instruction, which elided steps bypass).
func (m *Machine) jitStep(t *Thread) bool {
	if m.Integrity != nil || m.OnIssue != nil || m.Profiler != nil {
		return false
	}
	if m.Tracer != nil && m.Tracer.Enabled(telemetry.EvInstr) {
		return false
	}
	blk, idx := t.jblk, t.jidx
	if blk != nil {
		t.jblk = nil
		if !blk.Valid || idx >= len(blk.Steps) || blk.Steps[idx].Addr != t.IP.Addr() {
			blk = nil
		}
	}
	if blk == nil {
		blk = m.jit.BlockAt(t.IP.Addr())
		if blk == nil {
			return false
		}
		idx = 0
		m.jit.Counters.Entries++
	}
	if len(m.threads) == 1 && m.Remote == nil && m.scrubEvery == 0 && !m.cfg.WideIssue {
		m.runBlockWhole(t, blk, idx)
	} else {
		m.runBlockPaced(t, blk, idx)
	}
	return true
}

// runBlockPaced executes exactly one compiled step per machine cycle,
// leaving all per-cycle accounting to the ordinary Step loop. This is
// the mode for configurations where other agents act between cycles —
// sibling threads, deferred remote traffic, the background scrubber —
// and under WideIssue, where executeWide packs steps into issue
// packets and one step is not one cycle.
func (m *Machine) runBlockPaced(t *Thread, blk *jit.Block, idx int) {
	next, in := m.execStep(t, blk, idx)
	if in && blk.Valid && next < len(blk.Steps) {
		t.jblk, t.jidx = blk, next
	}
}

// runBlockWhole executes as much of the block as it can inside one
// Step call — including chaining a block-ending branch back to the
// block head — applying the cycle accounting the interpreter would
// have accumulated per instruction in one batch: each extra step is
// one more cycle, one more issue packet on this cluster, and one idle
// cycle on each of the others. A step that blocks the thread does not
// end the block when wakeInBlock can skip the clock to the wake-up.
// Exit leaves a resume cursor when the block can continue (memory
// blocking, chain budget, Run cap).
func (m *Machine) runBlockWhole(t *Thread, blk *jit.Block, idx int) {
	budget := m.jit.ChainBudget()
	issued := 1
	for {
		next, in := m.execStep(t, blk, idx)
		if !in || !blk.Valid || next >= len(blk.Steps) {
			return
		}
		if issued >= budget {
			t.jblk, t.jidx = blk, next
			return
		}
		if t.State == Ready {
			// The next step would execute at cycle m.cycle+1; a Run
			// cap means the interpreter would have stopped before it.
			if m.runLimit != 0 && m.cycle+1 >= m.runLimit {
				t.jblk, t.jidx = blk, next
				return
			}
			m.cycle++
			m.stats.Cycles++
		} else if !m.wakeInBlock(t) {
			t.jblk, t.jidx = blk, next
			return
		}
		m.now = m.cycle
		m.stats.IssuePackets++
		m.stats.IdleCycles += uint64(m.cfg.Clusters - 1)
		issued++
		idx = next
	}
}

// wakeInBlock ends the current cycle and skips the clock to the blocked
// lone thread's wake-up, so its block continues there: the cycles in
// between are ones in which no cluster issues (skipIdle). It does this
// only inside Run, whose loop would skip to the same cycle, before the
// Run cap, and when no stall ends first; otherwise it changes nothing
// and returns false, and external steppers keep seeing the thread
// blocked.
func (m *Machine) wakeInBlock(t *Thread) bool {
	at := max(m.cycle+1, t.blockedUntil)
	if m.runLimit == 0 || at >= m.runLimit || m.idleHorizon(m.cycle+1, at) != at {
		return false
	}
	m.cycle++
	m.stats.Cycles++
	m.skipIdle(at - m.cycle)
	t.State = Ready
	return true
}

// execStep runs blk.Steps[idx] for t at cycle m.now, exactly as the
// interpreter would have. It returns the next step index and whether
// execution may continue inside this block; false after faults, halts,
// control transfers that leave the block, and dispatch divergence.
func (m *Machine) execStep(t *Thread, blk *jit.Block, idx int) (int, bool) {
	s := &blk.Steps[idx]
	// Translate the fetch address every step, hit-path style (see
	// fetchDecoded): keeps TLB counters and fetch page faults
	// bit-identical to the interpreter.
	if _, _, err := m.Space.Translate(s.Addr); err != nil {
		m.fault(t, err)
		return 0, false
	}
	r := &t.Regs
	inst := &s.Inst
	switch s.Kind {
	case jit.KALU:
		switch inst.Op {
		case isa.NOP:
		case isa.ADD:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() + r[inst.Rb].Int())
		case isa.ADDI:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() + inst.Imm)
		case isa.SUB:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() - r[inst.Rb].Int())
		case isa.SUBI:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() - inst.Imm)
		case isa.MUL:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() * r[inst.Rb].Int())
		case isa.AND:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() & r[inst.Rb].Int())
		case isa.OR:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() | r[inst.Rb].Int())
		case isa.XOR:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() ^ r[inst.Rb].Int())
		case isa.SHL:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() << (uint64(r[inst.Rb].Int()) & 63))
		case isa.SHLI:
			r[inst.Rd] = word.FromInt(r[inst.Ra].Int() << (uint64(inst.Imm) & 63))
		case isa.SHR:
			r[inst.Rd] = word.FromInt(int64(uint64(r[inst.Ra].Int()) >> (uint64(r[inst.Rb].Int()) & 63)))
		case isa.SHRI:
			r[inst.Rd] = word.FromInt(int64(uint64(r[inst.Ra].Int()) >> (uint64(inst.Imm) & 63)))
		case isa.SLT:
			r[inst.Rd] = word.FromBool(r[inst.Ra].Int() < r[inst.Rb].Int())
		case isa.SLTI:
			r[inst.Rd] = word.FromBool(r[inst.Ra].Int() < inst.Imm)
		case isa.SEQ:
			r[inst.Rd] = word.FromBool(r[inst.Ra] == r[inst.Rb])
		case isa.SEQI:
			r[inst.Rd] = word.FromBool(r[inst.Ra].Int() == inst.Imm)
		case isa.MOV:
			r[inst.Rd] = r[inst.Ra]
		case isa.LDI:
			r[inst.Rd] = word.FromInt(inst.Imm)
		}

	case jit.KLoad:
		addr := (r[inst.Ra].Bits + uint64(inst.Imm)) & core.AddrMask
		if m.Remote != nil && m.Remote.IsRemote(addr) {
			return m.stepDispatch(t, blk, s, idx)
		}
		v, done, err := m.Cache.ReadWord(addr, m.now)
		if err != nil {
			m.fault(t, err)
			return 0, false
		}
		r[inst.Rd] = v
		m.block(t, done)

	case jit.KStore:
		addr := (r[inst.Ra].Bits + uint64(inst.Imm)) & core.AddrMask
		if m.Remote != nil && m.Remote.IsRemote(addr) {
			return m.stepDispatch(t, blk, s, idx)
		}
		done, err := m.Cache.WriteWord(addr, r[inst.Rb], m.now)
		if err != nil {
			m.fault(t, err)
			return 0, false
		}
		m.block(t, done)

	case jit.KLoadB:
		addr := (r[inst.Ra].Bits + uint64(inst.Imm)) & core.AddrMask
		if m.Remote != nil && m.Remote.IsRemote(addr) {
			return m.stepDispatch(t, blk, s, idx)
		}
		done, _, err := m.Cache.Access(addr, false, m.now)
		var bval byte
		if err == nil {
			bval, err = m.Space.ByteAt(addr)
		}
		if err != nil {
			m.fault(t, err)
			return 0, false
		}
		r[inst.Rd] = word.FromInt(int64(bval))
		m.block(t, done)

	case jit.KStoreB:
		addr := (r[inst.Ra].Bits + uint64(inst.Imm)) & core.AddrMask
		if m.Remote != nil && m.Remote.IsRemote(addr) {
			return m.stepDispatch(t, blk, s, idx)
		}
		done, _, err := m.Cache.Access(addr, true, m.now)
		if err == nil {
			err = m.Space.SetByteAt(addr, byte(r[inst.Rb].Bits))
		}
		if err != nil {
			m.fault(t, err)
			return 0, false
		}
		m.block(t, done)

	case jit.KLea:
		off := inst.Imm
		if inst.Op == isa.LEA || inst.Op == isa.LEAB {
			off = r[inst.Rb].Int()
		}
		if inst.Op == isa.LEA || inst.Op == isa.LEAI {
			r[inst.Rd] = core.UncheckedLEA(r[inst.Ra], off)
		} else {
			r[inst.Rd] = core.UncheckedLEAB(r[inst.Ra], off)
		}

	case jit.KBr:
		t.IP = core.UncheckedAdvance(t.IP, (inst.Imm+1)*word.BytesPerWord)
		m.retire(t)
		return m.branchExit(t, blk)

	case jit.KBeqz, jit.KBnez:
		taken := r[inst.Ra].Int() == 0
		if s.Kind == jit.KBnez {
			taken = !taken
		}
		if taken {
			t.IP = core.UncheckedAdvance(t.IP, (inst.Imm+1)*word.BytesPerWord)
			m.retire(t)
			return m.branchExit(t, blk)
		}

	case jit.KHalt:
		t.State = Halted
		m.retire(t)
		return 0, false

	default: // jit.KDispatch
		return m.stepDispatch(t, blk, s, idx)
	}

	t.IP = core.UncheckedAdvance(t.IP, word.BytesPerWord)
	m.retire(t)
	return idx + 1, true
}

// branchExit decides where a taken elided branch leaves the block: back
// to its own head (chain) or out to the machine loop. Exits feed the
// heat counters so blocks reachable only from compiled code still get
// discovered.
func (m *Machine) branchExit(t *Thread, blk *jit.Block) (int, bool) {
	a := t.IP.Addr()
	if a == blk.Head && blk.Valid {
		return 0, true
	}
	m.jit.NoteBranch(a)
	return 0, false
}

// stepDispatch runs one retained step through the interpreter's
// dispatch, then checks whether execution landed where the block
// expects: on the next step (sequential), or back on the block head (a
// retained branch chaining). Anything else — fault, halt, deferred
// remote (IP not advanced), control transfer out — exits the block
// with all state already committed by dispatch.
func (m *Machine) stepDispatch(t *Thread, blk *jit.Block, s *jit.Step, idx int) (int, bool) {
	m.dispatch(t, s.Inst)
	switch t.IP.Addr() {
	case s.Addr + word.BytesPerWord:
		if t.State == Ready || t.State == Blocked {
			return idx + 1, true
		}
	case blk.Head:
		if t.State == Ready && blk.Valid {
			return 0, true
		}
	}
	return 0, false
}
