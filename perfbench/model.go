package main

import "fmt"

// The model executes a generated instance in Go, independently of the
// simulator, and yields what every thread must leave behind: its
// registers, its retired-instruction count, and the contents of every
// segment. With recording on it also yields each thread's reference
// stream (fetches, loads, stores) for the replay probes.

// mval is a model word: an integer, or a pointer to byte offset v of
// segment seg.
type mval struct {
	v   int64
	seg int32
	ptr bool
}

func ival(v int64) mval { return mval{v: v} }

// Access kinds in a recorded stream.
const (
	accFetch uint8 = iota
	accLoad
	accStore
)

// access is one recorded reference: which segment and byte offset,
// what kind, and from which node the issuing thread runs on.
type access struct {
	seg  int32
	off  uint32
	kind uint8
	node uint8
}

type mthread struct {
	regs  [16]mval
	seg   int32 // code segment holding the instruction pointer
	pc    int   // word index within it
	count uint64
	node  int
	rec   []access
	limit int // recording cap (0 = not recording)
}

// expect is the model's verdict for a whole instance.
type expect struct {
	regs   [][16]mval
	counts []uint64
	mem    [][]mval
	// entry is the byte offset the loader's pointer to each segment
	// carries (non-zero only for a subsystem's enter pointer).
	entry []int64
	// streams holds each thread's recorded references (nil unless
	// recording was requested).
	streams [][]access
}

// maxModelSteps bounds one thread's execution: a generator bug that
// loops forever surfaces as an error, not a hang.
const maxModelSteps = 4_000_000_000

// runModel executes every thread of in to completion. recordPerThread
// caps each thread's recorded stream (0 records nothing).
func runModel(in *instance, recordPerThread int) (ex *expect, err error) {
	defer func() {
		if r := recover(); r != nil {
			ex, err = nil, fmt.Errorf("model: %v", r)
		}
	}()
	ex = &expect{mem: make([][]mval, len(in.segs)), entry: make([]int64, len(in.segs))}
	for i, s := range in.segs {
		if s.code != nil {
			ex.mem[i] = make([]mval, len(s.code.words))
			for w, ins := range s.code.words {
				if ins.op == opWord {
					ex.mem[i][w] = ival(ins.imm)
				}
			}
			if s.entry != "" {
				ex.entry[i] = int64(s.code.labels[s.entry]) * 8
			}
		} else {
			ex.mem[i] = make([]mval, s.bytes/8)
		}
	}
	for i, s := range in.segs {
		for _, iw := range s.init {
			ex.mem[i][iw.idx] = ex.initVal(iw)
		}
		for label, ref := range s.slots {
			ex.mem[i][s.code.labels[label]] = mval{seg: int32(ref), v: ex.entry[ref], ptr: true}
		}
	}
	for _, ts := range in.threads {
		t := &mthread{seg: int32(ts.code), node: ts.node, limit: recordPerThread}
		t.regs[rSeg] = mval{seg: int32(ts.data), ptr: true}
		ex.exec(in, t)
		ex.regs = append(ex.regs, t.regs)
		ex.counts = append(ex.counts, t.count)
		if recordPerThread > 0 {
			ex.streams = append(ex.streams, t.rec)
		}
	}
	return ex, nil
}

func (ex *expect) initVal(iw initWord) mval {
	if iw.ref < 0 {
		return ival(iw.v)
	}
	return mval{seg: int32(iw.ref), v: ex.entry[iw.ref] + iw.v, ptr: true}
}

func (t *mthread) note(seg int32, off int64, kind uint8) {
	if len(t.rec) < t.limit {
		t.rec = append(t.rec, access{seg: seg, off: uint32(off), kind: kind, node: uint8(t.node)})
	}
}

// addr checks that p+off names an aligned word inside p's segment and
// returns the segment and word index.
func (ex *expect) addr(p mval, off int64) (int32, int64) {
	if !p.ptr {
		panic(fmt.Sprintf("memory operand is not a pointer (%d)", p.v))
	}
	a := p.v + off
	if a < 0 || a%8 != 0 || a/8 >= int64(len(ex.mem[p.seg])) {
		panic(fmt.Sprintf("address %d outside segment %d", a, p.seg))
	}
	return p.seg, a / 8
}

func ints(a, b mval) (int64, int64) {
	if a.ptr || b.ptr {
		panic("integer operation on a pointer")
	}
	return a.v, b.v
}

func boolVal(b bool) mval {
	if b {
		return ival(1)
	}
	return ival(0)
}

// exec runs one thread until it halts.
func (ex *expect) exec(in *instance, t *mthread) {
	r := &t.regs
	for steps := uint64(0); ; steps++ {
		if steps > maxModelSteps {
			panic("thread did not halt")
		}
		code := in.segs[t.seg].code
		w := code.words[t.pc]
		tgt := code.target[t.pc]
		t.count++
		if t.limit > 0 {
			t.note(t.seg, int64(t.pc)*8, accFetch)
		}
		next := t.pc + 1
		switch w.op {
		case opHalt:
			return
		case opAdd, opSub, opMul, opAnd, opOr, opXor, opSlt, opSeq:
			a, b := ints(r[w.ra], r[w.rb])
			r[w.rd] = alu2(w.op, a, b)
		case opAddi, opSubi, opShli, opShri:
			a, _ := ints(r[w.ra], mval{})
			r[w.rd] = alu2(w.op, a, w.imm)
		case opLdi:
			r[w.rd] = ival(symImm(w, tgt))
		case opMov:
			r[w.rd] = r[w.ra]
		case opMovip:
			r[w.rd] = mval{seg: t.seg, v: int64(t.pc) * 8, ptr: true}
		case opLea, opLeai:
			off := w.imm
			if w.op == opLea {
				_, off = ints(mval{}, r[w.rb])
			}
			p := r[w.ra]
			if !p.ptr || p.v+off < 0 || p.v+off >= int64(len(ex.mem[p.seg]))*8 {
				panic(fmt.Sprintf("lea leaves segment at word %d of %s", t.pc, code.name))
			}
			r[w.rd] = mval{seg: p.seg, v: p.v + off, ptr: true}
		case opLeabi:
			p := r[w.ra]
			off := symImm(w, tgt)
			if !p.ptr || off < 0 || off >= int64(len(ex.mem[p.seg]))*8 {
				panic(fmt.Sprintf("leabi leaves segment at word %d of %s", t.pc, code.name))
			}
			r[w.rd] = mval{seg: p.seg, v: off, ptr: true}
		case opLd:
			seg, i := ex.addr(r[w.ra], symImm(w, tgt))
			if t.limit > 0 {
				t.note(seg, i*8, accLoad)
			}
			r[w.rd] = ex.mem[seg][i]
		case opSt:
			seg, i := ex.addr(r[w.ra], w.imm)
			if t.limit > 0 {
				t.note(seg, i*8, accStore)
			}
			ex.mem[seg][i] = r[w.rb]
		case opBr:
			next = tgt
		case opBeqz, opBnez:
			a, _ := ints(r[w.ra], mval{})
			if (a == 0) == (w.op == opBeqz) {
				next = tgt
			}
		case opJmpl, opJmp:
			dst := r[w.ra]
			if !dst.ptr || in.segs[dst.seg].code == nil || dst.v%8 != 0 {
				panic(fmt.Sprintf("jump through a non-code pointer at word %d of %s", t.pc, code.name))
			}
			if w.op == opJmpl {
				r[w.rd] = mval{seg: t.seg, v: int64(t.pc+1) * 8, ptr: true}
			}
			t.seg = dst.seg
			next = int(dst.v / 8)
		default:
			panic(fmt.Sprintf("model cannot execute %s", mnemonic[w.op]))
		}
		t.pc = next
	}
}

// symImm is the immediate of w: its label's byte offset when it names
// one.
func symImm(w inst, tgt int) int64 {
	if w.sym != "" {
		return int64(tgt) * 8
	}
	return w.imm
}

// alu2 mirrors the machine's integer semantics: 64-bit wrap-around,
// shift counts mod 64, logical right shift, 0/1 comparisons.
func alu2(op opcode, a, b int64) mval {
	switch op {
	case opAdd, opAddi:
		return ival(a + b)
	case opSub, opSubi:
		return ival(a - b)
	case opMul:
		return ival(a * b)
	case opAnd:
		return ival(a & b)
	case opOr:
		return ival(a | b)
	case opXor:
		return ival(a ^ b)
	case opShli:
		return ival(a << (uint64(b) & 63))
	case opShri:
		return ival(int64(uint64(a) >> (uint64(b) & 63)))
	case opSlt:
		return boolVal(a < b)
	case opSeq:
		return boolVal(a == b)
	}
	panic("not an ALU op")
}
