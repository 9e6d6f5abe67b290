package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostRecord describes where a result was measured.
type hostRecord struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	CPU         string `json:"cpu"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`        // for the parallel mesh scheduler
	SerialProcs int    `json:"gomaxprocs_serial"` // for everything else
	Store       string `json:"store"`             // "tmpfs" or "disk": where checkpoints land
}

const tmpfsMagic = 0x01021994

func host(storeDir string) hostRecord {
	h := hostRecord{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: meshWorkers(), SerialProcs: serialProcs,
		Store: "disk",
	}
	var st syscall.Statfs_t
	if syscall.Statfs(storeDir, &st) == nil && st.Type == tmpfsMagic {
		h.Store = "tmpfs"
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// meshWorkers is the parallel mesh scheduler's worker count:
// min(nproc, 8), never more simulation goroutines than processors.
// The Go runtime gets that many processors while the parallel
// scheduler runs.
func meshWorkers() int { return min(runtime.NumCPU(), 8) }

// serialProcs is GOMAXPROCS everywhere else. Only the benchmark's own
// goroutine has work there, and with a second processor the garbage
// collector runs idle-priority mark workers on it: they take as much
// CPU time as the processor has free, which makes process CPU time
// vary from run to run with no change in the work. On one processor
// the collector's whole cost still counts, as do helper goroutines.
const serialProcs = 1

// parallelProcs runs f with meshWorkers processors.
func parallelProcs(f func()) {
	runtime.GOMAXPROCS(meshWorkers())
	defer runtime.GOMAXPROCS(serialProcs)
	f()
}

// cpuClock sums the process's CPU time over one or more segments:
// every thread's user and system time, so garbage collection and any
// helper goroutine a measured call starts count towards it. It leaves
// out time the host steals from the virtual CPUs and time the process
// sleeps. Only the benchmark's own goroutine does work while a segment
// is open, apart from the Go runtime; the parallel mesh scheduler's
// worker threads would count once per thread, so it is timed in wall
// time instead.
type cpuClock struct {
	start, total time.Duration
}

func (c *cpuClock) resume() { c.start = cpuTime(clockProcessCPUTimeID) }

func (c *cpuClock) pause() { c.total += cpuTime(clockProcessCPUTimeID) - c.start }

const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuTime reads a CPU clock.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// Host-speed normalisation. The benchmark shares a virtual machine's
// processors with other tenants of its host, and the CPU time of a
// fixed piece of work drifts with them: on a 2-vCPU Xeon VM the same
// loop took 220 to 300 ms CPU time in six-second windows over two
// minutes, with neighbouring windows strongly correlated, which moves
// a whole run's median by as much as the regression bounds allow. So
// each timed sample (a setup, a run chunk, a capture, a restore, a
// migration) is followed by a probe: a fixed piece of the benchmark's
// own code, timed on the thread's CPU clock. Every end-to-end time is
// the sample's time scaled by the probe's reference time over its time
// next to the sample, so a slowdown of the host cancels out, while a
// change in the repository's code cannot move the probe, which runs
// none of it. Over one-minute compute and mesh runs this halved the
// spread of two-second window medians of the simulation rate and the
// durability times.
//
// The probe for set-up and simulation is table-driven branches over a
// 64 KB table. Captures, restores and migrations copy memory, and
// their probe adds two 4 MB copies: they follow memory contention
// that the simulator hardly feels. With the copies in the simulation's
// probe, a memory-bound process on the other vCPU tripled the spread
// of the normalised stream rate; without them in the durability probe,
// stream's migrate_ms_p50 spread 0.07 to 0.13 over ten seeds, against
// 0.01 to 0.03 with them.
//
// The reference times are the probes' typical CPU times on an idle
// 2-vCPU Xeon VM, so normalised times read close to measured ones
// there.
const (
	probeRef    = 1350 * time.Microsecond
	memProbeRef = probeRef + 770*time.Microsecond
)

// hostProbe holds the probes' working sets; it is allocated once.
type hostProbe struct {
	table    [8192]uint64
	src, dst []byte
	sink     uint64
}

func newHostProbe() *hostProbe {
	return &hostProbe{src: make([]byte, 4<<20), dst: make([]byte, 4<<20)}
}

// time runs the probe once, with the copies if mem is set, and returns
// its CPU time. The probe reads its own thread's clock, pinned to it:
// the process clock would also count garbage-collector work that
// happens to run beside the probe, and so hide part of an allocation
// regression in the sample before.
func (p *hostProbe) time(mem bool) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := cpuTime(clockThreadCPUTimeID)
	x, acc := uint64(12345), uint64(0)
	for i := 0; i < 100000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		switch (x >> 60) & 7 {
		case 0:
			acc += p.table[(x>>20)&8191]
		case 1:
			acc ^= x >> 7
		case 2:
			p.table[(x>>30)&8191] = acc
		case 3:
			acc = acc*3 + 1
		case 4:
			if acc&1 == 0 {
				acc >>= 1
			}
		default:
			acc += x & 0xff
		}
	}
	if mem {
		for i := 0; i < 2; i++ {
			copy(p.dst, p.src)
			p.src[acc%uint64(len(p.src))]++
		}
	}
	p.sink += acc
	return cpuTime(clockThreadCPUTimeID) - start
}

// norm scales a set-up or simulation sample d that has just been
// measured to the reference host speed; normMem does the same for a
// capture, restore or migration.
func (p *hostProbe) norm(d time.Duration) time.Duration {
	return scale(d, probeRef, p.time(false))
}

func (p *hostProbe) normMem(d time.Duration) time.Duration {
	return scale(d, memProbeRef, p.time(true))
}

func scale(d, ref, probe time.Duration) time.Duration {
	if probe <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(ref) / float64(probe))
}
