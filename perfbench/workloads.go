package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/machine"
	"repro/internal/multi"
)

// An instance is everything one workload run loads: the segments (code
// and data, in allocation order), the threads, and the machine they run
// on. Both the live setup (setup.go) and the Go model (model.go) are
// built from it, so they cannot disagree about the initial state.
type instance struct {
	workload string
	nodes    int            // 1 for a single kernel; >1 selects the mesh
	node     machine.Config // single-kernel machine configuration
	mesh     multi.Config
	segs     []segSpec
	threads  []threadSpec
	dataMax  uint64 // largest data segment (capverify.Config.DataBytes)
	jit      bool   // run with the translator (tests compare against false)
}

// segSpec is one segment. A code segment holds prog; a subsystem code
// segment is installed ENTER-gated with its slots patched to point at
// other segments.
type segSpec struct {
	node  int
	bytes uint64
	code  *prog
	entry string         // subsystem entry label ("" = ordinary program)
	slots map[string]int // subsystem slot label → segment index
	init  []initWord
}

// initWord presets one data word: an integer, or (ref >= 0) a pointer
// into segment ref at byte offset v past the pointer the loader minted
// for it (for a subsystem, that is its enter pointer).
type initWord struct {
	idx int
	v   int64
	ref int
}

// threadSpec spawns one thread in its own protection domain with r1
// holding a read/write pointer to its data segment.
type threadSpec struct {
	node       int
	code, data int // segment indices
}

// Sizes of the generated programs. outer scales run length only; the
// code shape, working sets and per-iteration mix are fixed per
// workload, so two seeds give programs of the same size and mix.
const (
	computeBlocks = 48
	computeFuncs  = 8
	computeTrip   = 64
	computeData   = 4 << 10

	streamData   = 256 << 10
	streamLoops  = 24   // four passes over the six stride patterns, one per sub-region
	streamNodes  = 4096 // pointer-chase nodes, 16 bytes each, in the last quarter
	domainsData  = 64 << 10
	domainsTh    = 16
	domainsLoops = 16
	subTable     = 4 << 10

	meshData  = 64 << 10
	meshLoops = 16
)

var workloadNames = []string{"compute", "stream", "domains", "mesh"}

// defaultOuter is each workload's outer-loop count: sized so one
// program run takes a fraction of a second of host time, letting a run
// repeat set-up and execution several times.
var defaultOuter = map[string]int{"compute": 400, "stream": 4, "domains": 1, "mesh": 1}

// newInstance generates workload w from seed with the given outer-loop
// count.
func newInstance(w string, seed uint64, outer int) (*instance, error) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var in *instance
	switch w {
	case "compute":
		in = computeInstance(rng, outer)
	case "stream":
		in = streamInstance(rng, outer)
	case "domains":
		in = domainsInstance(rng, outer)
	case "mesh":
		in = meshInstance(rng, outer)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", w, workloadNames)
	}
	in.jit = true
	return in, nil
}

// single lays out one program + one data segment on a single kernel.
func single(w string, cfg machine.Config, p *prog, data uint64) *instance {
	return &instance{
		workload: w, nodes: 1, node: cfg, dataMax: data,
		segs:    []segSpec{{code: p}, {bytes: data}},
		threads: []threadSpec{{code: 0, data: 1}},
	}
}

// computeInstance: ALU, branch and call loops over registers on a
// one-cluster node; the 4 KB data segment is touched only at the start
// and the end.
func computeInstance(rng *rand.Rand, outer int) *instance {
	p := newProg("compute")
	vals := []int{2, 3, 4, 5, 6, 7, 8, 9}
	for _, r := range vals {
		p.ldi(r, constant(rng))
	}
	for i, r := range vals {
		p.st(rSeg, int64(8*i), r)
	}
	for i, r := range vals {
		p.ld(r, rSeg, int64(8*((i+3)%len(vals))))
	}
	// One deck per part of different execution frequency (every
	// iteration, every other one, function loop, function tail), so each
	// part holds a fixed number of each operation. Each function is
	// called from the same number of sites.
	always, odd := newDeck(rng, aluOps), newDeck(rng, aluOps)
	fnLoop, fnTail := newDeck(rng, aluOps), newDeck(rng, aluOps)
	var fns []int
	for f := 0; f < computeFuncs; f++ {
		fns = append(fns, f)
	}
	callee := newDeck(rng, fns)
	lOut := loopHead(p, rOuter, outer, "outer")
	for b := 0; b < computeBlocks; b++ {
		l := loopHead(p, rInner, computeTrip, "blk")
		for k := 0; k < 8; k++ {
			alu(p, rng, always.next(), vals)
		}
		// Taken on every other iteration: the counter's low bit.
		skip := p.fresh("skip")
		p.rri(opShli, 10, rInner, 63)
		p.br(opBeqz, 10, skip)
		for k := 0; k < 4; k++ {
			alu(p, rng, odd.next(), vals)
		}
		p.label(skip)
		loopTail(p, rInner, l)
		if b%3 == 2 {
			p.funcPtr(rCall, fmt.Sprintf("fn%d", callee.next()))
			p.emit(inst{op: opJmpl, rd: rLink, ra: rCall})
		}
	}
	loopTail(p, rOuter, lOut)
	for i, r := range vals {
		p.st(rSeg, int64(64+8*i), r)
	}
	p.emit(inst{op: opHalt})
	for f := 0; f < computeFuncs; f++ {
		p.label(fmt.Sprintf("fn%d", f))
		l := loopHead(p, 11, 4, "fl")
		for k := 0; k < 6; k++ {
			alu(p, rng, fnLoop.next(), vals)
		}
		loopTail(p, 11, l)
		for k := 0; k < 3; k++ {
			alu(p, rng, fnTail.next(), vals)
		}
		p.emit(inst{op: opJmp, ra: rLink})
	}
	cfg := machine.MMachine()
	cfg.Clusters = 1
	return single("compute", cfg, p.finish(), computeData)
}

// streamInstance: affine load/store loops (two loads per store) over
// the first three quarters of a 256 KB segment, then a pointer chase
// through a full-period LCG permutation of 16-byte nodes in the last
// quarter, which the program builds itself.
func streamInstance(rng *rand.Rand, outer int) *instance {
	const q = streamData / 4
	p := newProg("stream")
	vals := []int{2, 3, 4, 5}
	for _, r := range vals {
		p.ldi(r, constant(rng))
	}
	strides := []int64{8, 16, 8, 32, 8, 16}
	combine := []opcode{opAdd, opXor, opSub}
	lOut := loopHead(p, rOuter, outer, "outer")
	for k := 0; k < streamLoops; k++ {
		// Loop k sweeps sub-region k/6 of three distinct quarters; the
		// quarters rotate with k, so every seed touches the same
		// addresses in the same order.
		quarters := []int{k % 3, (k + 1) % 3, (k + 2) % 3}
		s := strides[k%len(strides)]
		sub := int64(k/len(strides)) * q / 4
		trip := (q/4 - 64) / s
		p.leai(6, rSeg, int64(quarters[0]*q)+sub+8*int64(k%len(strides)))
		p.leai(7, rSeg, int64(quarters[1]*q)+sub+8*int64(k%len(strides)))
		p.leai(8, rSeg, int64(quarters[2]*q)+sub+8*int64(k%len(strides)))
		l := loopHead(p, rInner, int(trip), "aff")
		p.ld(9, 6, 0)
		p.ld(10, 7, 0)
		p.rrr(combine[rng.IntN(len(combine))], 11, 9, 10)
		p.rrr(combine[rng.IntN(len(combine))], 11, 11, vals[rng.IntN(len(vals))])
		p.st(8, 0, 11)
		p.leai(6, 6, s)
		p.leai(7, 7, s)
		p.leai(8, 8, s)
		loopTail(p, rInner, l)
		p.rrr(opAdd, vals[k%len(vals)], vals[k%len(vals)], 11)
	}
	// Build the chase list: node i points at node (a·i + c) mod n.
	// With a ≡ 1 (mod 4) and c odd the walk visits every node.
	const a, c = 4*1237 + 1, 2*3571 + 1
	p.leai(6, rSeg, 3*q)
	p.ldi(8, 0)
	p.ldi(13, a)
	p.ldi(14, streamNodes-1)
	l := loopHead(p, rInner, streamNodes, "build")
	p.rri(opShli, 7, 8, 4)
	p.rrr(opLea, 7, 6, 7)
	p.rrr(opMul, 9, 8, 13)
	p.rri(opAddi, 9, 9, c)
	p.rrr(opAnd, 9, 9, 14)
	p.rri(opShli, 9, 9, 4)
	p.rrr(opLea, 10, 6, 9)
	p.st(7, 0, 10)
	p.rrr(opXor, 11, 8, vals[0])
	p.st(7, 8, 11)
	p.rri(opAddi, 8, 8, 1)
	loopTail(p, rInner, l)
	p.mov(7, 6)
	l = loopHead(p, rInner, streamNodes, "chase")
	p.ld(9, 7, 8)
	p.rrr(opAdd, 3, 3, 9)
	p.ld(7, 7, 0)
	loopTail(p, rInner, l)
	loopTail(p, rOuter, lOut)
	for i, r := range vals {
		p.st(rSeg, int64(8*i), r)
	}
	p.emit(inst{op: opHalt})
	return single("stream", machine.MMachine(), p.finish(), streamData)
}

// Data-segment header words of the domains and mesh programs.
const (
	hdrPtr  = 0 // a pointer the loader leaves for the program
	hdrSeed = 1 // per-thread seed value
	hdrOut  = 2 // written by the subsystem on every call
	hdrSum  = 3 // final result
)

// domainsInstance: 16 threads in 16 protection domains on a full node,
// each sweeping its own 64 KB segment and calling a shared ENTER-gated
// subsystem once per loop iteration. The subsystem reads its private
// table through a pointer stored in its own code segment (Fig. 3) and
// writes its result through the caller's segment pointer in r5.
func domainsInstance(rng *rand.Rand, outer int) *instance {
	sub := newProg("subsystem")
	sub.label("entry")
	sub.emit(inst{op: opMovip, rd: 6})
	sub.emit(inst{op: opLeabi, rd: 6, ra: 6, imm: 0})
	sub.emit(inst{op: opLd, rd: 6, ra: 6, sym: "tbl"})
	sub.ldi(7, subTable/8-1)
	sub.rrr(opAnd, 7, 3, 7)
	sub.rri(opShli, 7, 7, 3)
	sub.rrr(opLea, 6, 6, 7)
	sub.ld(8, 6, 0)
	sub.rrr(opXor, 4, 3, 8)
	sub.rri(opAddi, 4, 4, rng.Int64N(1<<20)+1)
	sub.st(5, 8*hdrOut, 4)
	sub.emit(inst{op: opJmp, ra: rLink})
	sub.label("tbl")
	sub.emit(inst{op: opWord})
	sub.finish()

	const half = domainsData / 2
	p := newProg("domains")
	p.ld(rCall, rSeg, 8*hdrPtr)
	p.ld(2, rSeg, 8*hdrSeed)
	p.mov(5, rSeg)
	p.rri(opAddi, 3, 2, constant(rng))
	lOut := loopHead(p, rOuter, outer, "outer")
	for k := 0; k < domainsLoops; k++ {
		// Loop k copies sub-region k/4 of one half into the other,
		// alternating direction; the header words stay untouched.
		const sub = half / 4
		src, dst := int64(64), int64(half+64)
		if k%2 == 1 {
			src, dst = dst, src
		}
		off := int64(k/4)*sub + 8*int64(k%4)
		s := int64(16)
		trip := (sub - 128) / s
		p.leai(9, rSeg, src+off)
		p.leai(10, rSeg, dst+off)
		l := loopHead(p, rInner, int(trip), "dom")
		p.ld(11, 9, 0)
		p.rrr(opXor, 3, 11, 2)
		p.emit(inst{op: opJmpl, rd: rLink, ra: rCall})
		p.rrr(opAdd, 2, 2, 4)
		p.st(10, 0, 3)
		p.ld(11, 9, 8)
		p.rrr([]opcode{opAdd, opXor, opSub}[rng.IntN(3)], 2, 2, 11)
		p.leai(9, 9, s)
		p.leai(10, 10, s)
		loopTail(p, rInner, l)
	}
	loopTail(p, rOuter, lOut)
	p.st(rSeg, 8*hdrSum, 2)
	p.emit(inst{op: opHalt})
	p.padHalt()
	p.finish()

	table := segSpec{bytes: subTable}
	for i := 0; i < subTable/8; i++ {
		table.init = append(table.init, initWord{idx: i, v: constant(rng), ref: -1})
	}
	in := &instance{workload: "domains", nodes: 1, node: machine.MMachine(), dataMax: domainsData}
	in.segs = append(in.segs, table, segSpec{code: sub, entry: "entry", slots: map[string]int{"tbl": 0}})
	for t := 0; t < domainsTh; t++ {
		code, data := len(in.segs), len(in.segs)+1
		in.segs = append(in.segs, segSpec{code: p}, segSpec{bytes: domainsData, init: []initWord{
			{idx: hdrPtr, ref: 1},
			{idx: hdrSeed, v: constant(rng), ref: -1},
		}})
		in.threads = append(in.threads, threadSpec{code: code, data: data})
	}
	return in
}

// Mesh segment regions: each node's own loops stay below meshConst; the
// previous node reads [meshConst, meshInbox) and writes [meshInbox, end).
const (
	meshConst = meshData / 2
	meshInbox = meshData * 3 / 4
)

// meshInstance: one program per node of the 2×2×2 mesh. One memory
// operation in four targets the next node's segment, whose pointer the
// program finds in its own header: loops alternate between remote
// reads of the next node's constant region and remote writes into its
// inbox, so no node ever reads data another node writes.
func meshInstance(rng *rand.Rand, outer int) *instance {
	cfg := multi.DefaultConfig()
	nodes := cfg.Mesh.DimX * cfg.Mesh.DimY * cfg.Mesh.DimZ
	in := &instance{workload: "mesh", nodes: nodes, mesh: cfg, dataMax: meshData}
	for n := 0; n < nodes; n++ {
		p := newProg(fmt.Sprintf("mesh-node%d", n))
		p.ld(rCall, rSeg, 8*hdrPtr)
		vals := []int{2, 3, 4, 5}
		for _, r := range vals {
			p.ldi(r, constant(rng))
		}
		combine := []opcode{opAdd, opXor, opSub}
		lOut := loopHead(p, rOuter, outer, "outer")
		for k := 0; k < meshLoops; k++ {
			// Loop k works on sub-region k/4 of the local source and
			// destination quarters and of one remote region.
			const sub = meshData / 16
			s := int64(16)
			trip := (sub - 64) / s
			off := int64(k/4)*sub + 8*int64(k%4)
			p.leai(6, rSeg, 64+off)
			p.leai(7, rSeg, meshData/4+off)
			remote := int64(meshConst)
			if k%2 == 1 {
				remote = meshInbox
			}
			p.leai(8, rCall, remote+off)
			l := loopHead(p, rInner, int(trip), "mesh")
			p.ld(9, 6, 0)
			p.ld(10, 6, 8)
			p.rrr(combine[rng.IntN(len(combine))], 9, 9, 10)
			if k%2 == 0 {
				p.ld(11, 8, 0)
				p.rrr(combine[rng.IntN(len(combine))], 9, 9, 11)
				p.st(7, 0, 9)
			} else {
				p.rrr(combine[rng.IntN(len(combine))], 9, 9, vals[k%len(vals)])
				p.st(7, 0, 9)
				p.st(8, 0, 9)
			}
			p.rrr(opAdd, vals[k%len(vals)], vals[k%len(vals)], 9)
			p.leai(6, 6, s)
			p.leai(7, 7, s)
			p.leai(8, 8, s)
			loopTail(p, rInner, l)
		}
		loopTail(p, rOuter, lOut)
		for i, r := range vals {
			p.st(rSeg, int64(8*(hdrSum+i)), r)
		}
		p.emit(inst{op: opHalt})
		p.finish()
		in.segs = append(in.segs, segSpec{node: n, code: p}, segSpec{node: n, bytes: meshData})
		in.threads = append(in.threads, threadSpec{node: n, code: 2 * n, data: 2*n + 1})
	}
	for n := 0; n < nodes; n++ {
		d := &in.segs[2*n+1]
		d.init = append(d.init, initWord{idx: hdrPtr, ref: 2*((n+1)%nodes) + 1})
		for i := meshConst / 8; i < meshInbox/8; i++ {
			d.init = append(d.init, initWord{idx: i, v: constant(rng), ref: -1})
		}
	}
	return in
}
