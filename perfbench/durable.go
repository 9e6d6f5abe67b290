package main

import (
	"bytes"
	"os"
	"runtime"
	"time"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/persist"
)

// durable drives the checkpoint, restore and migration operations one
// program run performs on its (first) node's kernel while the program
// is paused between run chunks.
type durable struct {
	b     *bench
	cfg   machine.Config
	dir   string
	store *persist.Store

	// Incremental chain state, as persist.Saver keeps it: the newest
	// committed generation, the capture baseline, and the deltas since
	// the last base image.
	gen       uint64
	cap       *kernel.CaptureState
	sinceBase int
}

func newDurable(b *bench, cfg machine.Config, dir string) (*durable, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := persist.Open(dir, 1)
	if err != nil {
		return nil, err
	}
	return &durable{b: b, cfg: cfg, dir: dir, store: st}, nil
}

func (d *durable) close() { _ = os.RemoveAll(d.dir) }

// fingerprint hashes k's architectural state. A blocked thread counts
// as ready, as the kernel's checkpoint contract has it: its memory
// operation has already committed, and a restored thread resumes ready.
func fingerprint(k *kernel.Kernel) (uint64, error) {
	cp, err := k.Checkpoint()
	if err != nil {
		return 0, err
	}
	for i := range cp.Threads {
		if cp.Threads[i].State == machine.Blocked {
			cp.Threads[i].State = machine.Ready
		}
	}
	return migrate.FingerprintImage(cp), nil
}

// checkpoint commits one durable incremental generation of k. It
// takes persist.Saver.Capture's two steps itself, under the Saver's
// chain policy (a fresh base every persist.DefaultBaseEvery generations
// and after any failure): kernel.CheckpointIncremental, then
// Store.WriteGeneration, which encodes the image and writes it
// durably. Saver.Capture is one call, and the CPU time of its file
// writes and flushes on a disk-backed store drifts from run to run by
// more than the regression bound, so the capture's CPU time is read on
// its own. When tracing, the committed generation is loaded back and
// encoded and decoded once more, to time the codec on the image the
// commit wrote. It reports whether the generation committed.
func (d *durable) checkpoint(k *kernel.Kernel) bool {
	b := d.b
	tr := b.tr
	a := &b.acc
	b.attempted++
	prev := d.cap
	if d.sinceBase >= persist.DefaultBaseEvery-1 {
		prev = nil
	}
	gen, cycle := d.gen+1, k.M.Cycle()
	var capture cpuClock
	m := tr.begin("persist.checkpoint")
	mc := tr.begin("persist.capture")
	capture.resume()
	cp, ncap, err := k.CheckpointIncremental(prev)
	capture.pause()
	captureWall := tr.end(mc)
	if err == nil {
		mw := tr.begin("persist.write")
		err = d.store.WriteGeneration(gen, d.gen, cycle, []*kernel.Checkpoint{cp})
		tr.end(mw)
	}
	wall := tr.end(m)
	if err != nil {
		d.cap = nil // the next capture re-bases, as the Saver does
		b.fail("checkpoint: %v", err)
		return false
	}
	if cp.Delta {
		d.sinceBase++
	} else {
		d.sinceBase = 0
	}
	d.cap, d.gen = ncap, gen
	// A base image copies every page and a delta only the dirty ones;
	// one in persist.DefaultBaseEvery captures is a base, so the upper
	// quantiles of a mixed sample sit on the jump between the two.
	if cp.Delta {
		a.captureMs = append(a.captureMs, ms(b.probe.normMem(capture.total)))
	} else {
		a.baseCaptureMs = append(a.baseCaptureMs, ms(captureWall))
	}
	a.checkpointMs = append(a.checkpointMs, ms(wall))
	if tr.on {
		d.codec(gen)
	}
	if gen%16 == 0 {
		if err := d.store.Prune(16); err != nil {
			b.fail("prune: %v", err)
		}
	}
	return true
}

// codec loads committed generation gen back, encodes its image once
// more (the encoding must reproduce the committed bytes) and decodes
// the result, timing persist.Encode and persist.Decode.
func (d *durable) codec(gen uint64) {
	b := d.b
	a := &b.acc
	cps, desc, err := d.store.LoadImages(gen)
	if err != nil || len(cps) != 1 {
		b.fail("codec: load generation %d: %v", gen, err)
		return
	}
	cp := cps[0]
	var buf bytes.Buffer
	t := time.Now()
	err = persist.Encode(&buf, persist.Header{Gen: gen, Parent: desc.Parent, Cycle: desc.Cycle, Delta: cp.Delta}, cp)
	encode := time.Since(t)
	if err != nil || uint64(buf.Len()) != desc.Bytes {
		b.fail("codec: generation %d encodes to %d bytes, committed %d (%v)", gen, buf.Len(), desc.Bytes, err)
		return
	}
	t = time.Now()
	_, _, err = persist.Decode(buf.Bytes())
	decode := time.Since(t)
	if err != nil {
		b.fail("codec: decode generation %d: %v", gen, err)
		return
	}
	a.encodeMs = append(a.encodeMs, ms(encode))
	a.decodeMs = append(a.decodeMs, ms(decode))
	if cp.Delta {
		a.deltaBytes = append(a.deltaBytes, float64(desc.Bytes))
	} else {
		a.baseBytes = append(a.baseBytes, float64(desc.Bytes))
	}
}

// restore rebuilds a kernel from the newest generation and checks it
// against k, which has not run since that generation was committed.
func (d *durable) restore(k *kernel.Kernel) {
	b := d.b
	b.attempted++
	want, err := fingerprint(k)
	if err != nil {
		b.fail("fingerprint: %v", err)
		return
	}
	// A restore allocates the node's whole physical memory. Collecting
	// first starts every restore from the same heap state; otherwise
	// whether that allocation needs zeroing or triggers a collection
	// depends on the garbage earlier steps (this benchmark's own
	// fingerprint checks among them) left, which moved the median
	// restore by over 50% between runs.
	runtime.GC()
	var cpu cpuClock
	m := b.tr.begin("persist.restore")
	cpu.resume()
	k2, gen, _, err := persist.RestoreNewest(d.store, d.cfg)
	cpu.pause()
	b.tr.end(m)
	restore := b.probe.normMem(cpu.total)
	if err != nil {
		b.fail("restore: %v", err)
		return
	}
	got, err := fingerprint(k2)
	if err != nil || gen != d.gen || got != want {
		b.fail("restore: generation %d (want %d), fingerprint %#x (want %#x), err %v", gen, d.gen, got, want, err)
		return
	}
	b.acc.restoreMs = append(b.acc.restoreMs, ms(restore))
}

// migrate live-migrates k onto a standby over a fresh simulated link.
// The source keeps executing through step while pre-copy rounds are on
// the wire; that time is simulation, not migration.
func (d *durable) migrate(k *kernel.Kernel, step func(uint64)) {
	b := d.b
	b.attempted++
	recv := migrate.NewReceiver()
	link := migrate.NewLink(migrate.LinkConfig{})
	link.Deliver = recv.Deliver
	// The clock pauses while the source steps: that is simulation. The
	// step span holds the chunk's own host-speed probe as well.
	var cpu cpuClock
	m := b.tr.begin("migrate.run")
	cpu.resume()
	rep, err := migrate.Run(k, link, recv, func(c uint64) {
		cpu.pause()
		s := b.tr.begin("migrate.step")
		step(c)
		b.tr.end(s)
		cpu.resume()
	}, migrate.Config{})
	cpu.pause()
	b.tr.end(m)
	migration := b.probe.normMem(cpu.total)
	if err != nil || !rep.Committed {
		b.fail("migrate: %v (%s)", err, rep.Reason)
		return
	}
	standby, err := kernel.Restore(d.cfg, rep.Image)
	if err != nil {
		b.fail("migrate: standby boot: %v", err)
		return
	}
	src, err1 := fingerprint(k)
	dst, err2 := fingerprint(standby)
	if err1 != nil || err2 != nil || src != dst {
		b.fail("migrate: standby fingerprint %#x != source %#x (%v %v)", dst, src, err1, err2)
		return
	}
	a := &b.acc
	a.migrateMs = append(a.migrateMs, ms(migration))
	a.stwCycles = append(a.stwCycles, float64(rep.STWCycles))
	a.migRounds = append(a.migRounds, float64(len(rep.Rounds)))
	a.migWire = append(a.migWire, float64(rep.Link.PayloadBytes))
	a.migRetransmits += rep.Link.Retransmits
	if b.tr.on && a.frameCodecUs == nil {
		d.replayFrames(rep.Image)
	}
}

// replayFrames times the migration wire codec: the committed image is
// encoded as on the wire, chunked into frames, and every frame is
// encoded and decoded once.
func (d *durable) replayFrames(img *kernel.Checkpoint) {
	var buf bytes.Buffer
	if err := persist.Encode(&buf, persist.Header{Gen: 1, Parent: 1}, img); err != nil {
		d.b.fail("frame replay: %v", err)
		return
	}
	raw := buf.Bytes()
	var frames []*migrate.Frame
	chunks := (len(raw) + migrate.MaxFramePayload - 1) / migrate.MaxFramePayload
	for i := 0; i < chunks; i++ {
		end := min((i+1)*migrate.MaxFramePayload, len(raw))
		frames = append(frames, &migrate.Frame{Kind: migrate.FrameImage, Round: 1, Seq: uint64(i),
			Chunk: uint32(i), Chunks: uint32(chunks), Payload: raw[i*migrate.MaxFramePayload : end]})
	}
	t := time.Now()
	for _, f := range frames {
		enc, err := migrate.EncodeFrame(f)
		if err == nil {
			_, err = migrate.DecodeFrame(enc)
		}
		if err != nil {
			d.b.fail("frame replay: %v", err)
			return
		}
	}
	us := float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(frames))
	d.b.acc.frameCodecUs = append(d.b.acc.frameCodecUs, us)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
