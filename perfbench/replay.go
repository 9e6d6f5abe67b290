package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/vm"
	"repro/internal/word"
)

// Replay probes time the layers machine.Step calls internally, which
// the benchmark cannot wrap: vm.Space.Translate, cache.Access,
// core.LEA/CheckLoad/CheckStore, mem reads and noc.Send. Each probe
// drives the workload's own reference stream, as the model recorded
// it, through freshly built layer objects laid out like the live run.
// Inputs are prepared before the clock starts, and a short stream is
// replayed repeatedly until minReplayCalls calls have been timed.

const (
	// recordCap bounds the references the model records for replay,
	// shared evenly among the threads; it keeps the probes' inputs
	// small enough that walking them does not dominate their timing.
	recordCap = 1_000_000
	// minReplayCalls is the fewest calls a probe times.
	minReplayCalls = 500_000
)

// probe is one replay result: host nanoseconds per call, and how many
// distinct recorded calls the stream held.
type probe struct {
	ns     float64
	stream int
}

type replayResult struct {
	translate, access, lea, check, memRead, send probe
}

// interleave merges the threads' streams round-robin, the order in
// which a multithreaded node issues them.
func interleave(streams [][]access) []access {
	var out []access
	for i := 0; ; i++ {
		any := false
		for _, s := range streams {
			if i < len(s) {
				out = append(out, s[i])
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// timePasses runs pass, which makes n calls, until at least
// minReplayCalls calls have run, and returns ns per call.
func timePasses(n int, pass func() error) (probe, error) {
	if n == 0 {
		return probe{}, nil
	}
	calls := 0
	t := time.Now()
	for calls < minReplayCalls {
		if err := pass(); err != nil {
			return probe{}, err
		}
		calls += n
	}
	return probe{ns: float64(time.Since(t).Nanoseconds()) / float64(calls), stream: n}, nil
}

// replay runs every probe over the recorded streams of b.ex, using the
// segment addresses of live run l.
func (b *bench) replay(l *live) (replayResult, error) {
	var res replayResult
	in := b.in
	refs := interleave(b.ex.streams)
	nodeCfg := in.node
	if in.nodes > 1 {
		nodeCfg = in.mesh.Node
	}
	spaces := make([]*vm.Space, in.nodes)
	caches := make([]*cache.Cache, in.nodes)
	for n := range spaces {
		sp, err := vm.NewSpace(nodeCfg.PhysBytes, nodeCfg.TLBEntries)
		if err != nil {
			return res, err
		}
		c, err := cache.New(sp, nodeCfg.Cache)
		if err != nil {
			return res, err
		}
		spaces[n], caches[n] = sp, c
	}
	for i, s := range in.segs {
		if err := spaces[s.node].EnsureMapped(l.ptrs[i].Base(), l.ptrs[i].SegSize()); err != nil {
			return res, err
		}
	}

	// Per reference: the home node (whose space and cache serve it),
	// its virtual address, and for data references the base pointer
	// the effective address is formed from.
	type dataRef struct {
		home  int
		va    uint64
		pa    uint64
		off   int64
		store bool
		base  core.Pointer
		ea    word.Word
	}
	homes := make([]int, len(refs))
	vas := make([]uint64, len(refs))
	var data []dataRef
	var remote [][2]int
	for i, a := range refs {
		homes[i] = in.segs[a.seg].node
		vas[i] = l.ptrs[a.seg].Base() + uint64(a.off)
		if a.kind == accFetch {
			continue
		}
		p := l.ptrs[a.seg]
		base, err := core.Make(core.PermReadWrite, p.LogLen(), p.Base())
		if err != nil {
			return res, err
		}
		data = append(data, dataRef{home: homes[i], va: vas[i], off: int64(a.off), store: a.kind == accStore, base: base})
		if homes[i] != int(a.node) {
			remote = append(remote, [2]int{int(a.node), homes[i]}, [2]int{homes[i], int(a.node)})
		}
	}

	var err error
	// vm: every reference translates, fetches and data alike.
	if res.translate, err = timePasses(len(refs), func() error {
		for i, va := range vas {
			if _, _, err := spaces[homes[i]].Translate(va); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return res, err
	}
	// mem: the functional word access behind every load and store.
	for i := range data {
		pa, _, err := spaces[data[i].home].Translate(data[i].va)
		if err != nil {
			return res, err
		}
		data[i].pa = pa
	}
	if res.memRead, err = timePasses(len(data), func() error {
		for i := range data {
			if _, err := spaces[data[i].home].Phys.ReadWord(data[i].pa); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return res, err
	}
	// cache: the timing access of every load and store, at its home.
	now := uint64(0)
	if res.access, err = timePasses(len(data), func() error {
		for i := range data {
			now++
			if _, _, err := caches[data[i].home].Access(data[i].va, data[i].store, now); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return res, err
	}
	// core: the bounds-checked LEA forming each effective address, then
	// its permission, span and alignment check.
	if res.lea, err = timePasses(len(data), func() error {
		for i := range data {
			q, err := core.LEA(data[i].base, data[i].off)
			if err != nil {
				return err
			}
			data[i].ea = q.Word()
		}
		return nil
	}); err != nil {
		return res, err
	}
	if res.check, err = timePasses(len(data), func() error {
		for i := range data {
			var err error
			if data[i].store {
				_, err = core.CheckStore(data[i].ea, word.BytesPerWord)
			} else {
				_, err = core.CheckLoad(data[i].ea, word.BytesPerWord)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return res, err
	}

	// noc: each remote reference is a request and a reply. Only the
	// mesh has remote references; elsewhere the probe has nothing to
	// replay and reports 0 with coverage 0.
	if len(remote) == 0 {
		return res, nil
	}
	net, err := noc.New(in.mesh.Mesh)
	if err != nil {
		return res, err
	}
	now = 0
	if res.send, err = timePasses(len(remote), func() error {
		for _, m := range remote {
			now += 4
			if _, err := net.Send(m[0], m[1], now); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return res, err
	}
	return res, nil
}
