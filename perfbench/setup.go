package main

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/multi"
	"repro/internal/word"
)

// live is one booted instance: the kernel(s), the pointer the loader
// minted for every segment, and the spawned threads.
type live struct {
	sys     *multi.System    // mesh only
	kerns   []*kernel.Kernel // one per node
	ptrs    []core.Pointer   // per segment
	threads []*machine.Thread
}

// verdict summarises capverify over the distinct programs of an
// instance (the subsystem is entered with arguments, outside the
// loader contract, and is not verified).
type verdict struct {
	words, sites, safe, unknown int
}

// sources renders every distinct program of in once; setup assembles
// from these texts, as mmsim would from a file.
func sources(in *instance) map[*prog]string {
	src := make(map[*prog]string)
	for _, s := range in.segs {
		if s.code != nil && src[s.code] == "" {
			src[s.code] = s.code.source()
		}
	}
	return src
}

// setup takes an instance from source text to its first simulated
// cycle: assemble, verify, boot, allocate and load, spawn, and register
// with the translator. Each step is a child span of "setup".
func setup(tr *tracer, in *instance, src map[*prog]string, serial bool) (*live, verdict, error) {
	var v verdict
	top := tr.begin("setup")
	defer tr.end(top)

	sp := tr.begin("asm.assemble")
	progs := make(map[*prog]*asm.Program)
	for _, s := range in.segs {
		if s.code == nil || progs[s.code] != nil {
			continue
		}
		ap, err := asm.AssembleNamed(s.code.name+".s", src[s.code])
		if err != nil {
			return nil, v, fmt.Errorf("assemble: %w", err)
		}
		progs[s.code] = ap
		v.words += len(ap.Words)
	}
	tr.end(sp)

	sp = tr.begin("capverify.verify")
	verified := make(map[*prog]bool)
	for _, s := range in.segs {
		if s.code == nil || s.entry != "" || verified[s.code] {
			continue
		}
		verified[s.code] = true
		rep := capverify.Verify(progs[s.code], capverify.Config{DataBytes: in.dataMax})
		if rep.HasFault() {
			return nil, v, fmt.Errorf("%s provably faults: %v", s.code.name, rep.Faults()[0])
		}
		v.sites += rep.Totals.Total()
		v.safe += rep.Totals.Safe
		v.unknown += rep.Totals.Unknown
	}
	tr.end(sp)

	sp = tr.begin("kernel.boot")
	l := &live{ptrs: make([]core.Pointer, len(in.segs))}
	if in.nodes > 1 {
		cfg := in.mesh
		cfg.JIT = in.jit
		cfg.Serial = serial
		cfg.Workers = meshWorkers()
		sys, err := multi.New(cfg)
		if err != nil {
			return nil, v, fmt.Errorf("boot mesh: %w", err)
		}
		l.sys = sys
		for _, n := range sys.Nodes {
			l.kerns = append(l.kerns, n.K)
		}
	} else {
		k, err := kernel.New(in.node)
		if err != nil {
			return nil, v, fmt.Errorf("boot: %w", err)
		}
		l.kerns = []*kernel.Kernel{k}
	}
	tr.end(sp)

	sp = tr.begin("kernel.load")
	for i, s := range in.segs {
		k := l.kerns[s.node]
		var err error
		switch {
		case s.entry != "":
			slots := make(map[string]core.Pointer)
			for label, ref := range s.slots {
				slots[label] = l.ptrs[ref]
			}
			l.ptrs[i], err = k.InstallSubsystem(progs[s.code], s.entry, slots)
		case s.code != nil:
			l.ptrs[i], err = k.LoadProgram(progs[s.code], false)
		default:
			l.ptrs[i], err = k.AllocSegment(s.bytes)
		}
		if err != nil {
			return nil, v, fmt.Errorf("load segment %d: %w", i, err)
		}
	}
	for i, s := range in.segs {
		for _, iw := range s.init {
			w := word.FromInt(iw.v)
			if iw.ref >= 0 {
				p := l.ptrs[iw.ref]
				if iw.v != 0 {
					q, err := core.LEA(p, iw.v)
					if err != nil {
						return nil, v, fmt.Errorf("init segment %d: %w", i, err)
					}
					p = q
				}
				w = p.Word()
			}
			at, err := core.LEA(l.ptrs[i], int64(iw.idx)*8)
			if err != nil {
				return nil, v, fmt.Errorf("init segment %d: %w", i, err)
			}
			if err := l.kerns[s.node].WriteWords(at, []word.Word{w}); err != nil {
				return nil, v, fmt.Errorf("init segment %d: %w", i, err)
			}
		}
	}
	for _, ts := range in.threads {
		k := l.kerns[ts.node]
		th, err := k.Spawn(k.NewDomain(), l.ptrs[ts.code], map[int]word.Word{rSeg: l.ptrs[ts.data].Word()})
		if err != nil {
			return nil, v, fmt.Errorf("spawn: %w", err)
		}
		l.threads = append(l.threads, th)
	}
	tr.end(sp)

	sp = tr.begin("jit.register")
	if l.sys == nil && in.jit {
		l.kerns[0].M.EnableJIT(jit.DefaultConfig())
	}
	for _, ts := range in.threads {
		code := in.segs[ts.code].code
		l.kerns[ts.node].M.JITRegister(progs[code], l.ptrs[ts.code].Addr(),
			capverify.Config{DataBytes: in.segs[ts.data].bytes})
	}
	tr.end(sp)
	return l, v, nil
}

// done reports whether every thread of the instance has finished.
func (l *live) done() bool {
	if l.sys != nil {
		return l.sys.Done()
	}
	return l.kerns[0].M.Done()
}

// run advances the instance n cycles (mesh cycles on the mesh) and
// returns the cycles executed.
func (l *live) run(n uint64) uint64 {
	if l.sys != nil {
		return l.sys.Run(n)
	}
	return l.kerns[0].Run(n)
}

// cycle returns the instance's cycle count.
func (l *live) cycle() uint64 {
	if l.sys != nil {
		return l.sys.Cycle()
	}
	return l.kerns[0].M.Cycle()
}
