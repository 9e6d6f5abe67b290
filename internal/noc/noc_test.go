package noc

import (
	"errors"
	"testing"
	"testing/quick"
)

func mesh(t *testing.T, x, y, z int) *Network {
	t.Helper()
	n, err := New(Config{DimX: x, DimY: y, DimZ: z, RouterLatency: 2, InjectLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// send is Send with errors fatal — every in-range send in these tests
// must succeed.
func send(t *testing.T, n *Network, src, dst int, now uint64) uint64 {
	t.Helper()
	arr, err := n.Send(src, dst, now)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{DimX: 0, DimY: 1, DimZ: 1}); err == nil {
		t.Error("zero-dimension mesh accepted")
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	n := mesh(t, 3, 4, 5)
	if n.Nodes() != 60 {
		t.Fatalf("Nodes = %d", n.Nodes())
	}
	for id := 0; id < n.Nodes(); id++ {
		if got := n.IDOf(n.CoordOf(id)); got != id {
			t.Fatalf("id %d round-tripped to %d", id, got)
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	n := mesh(t, 4, 4, 4)
	a := n.IDOf(Coord{0, 0, 0})
	b := n.IDOf(Coord{3, 2, 1})
	if n.Hops(a, b) != 6 {
		t.Errorf("Hops = %d, want 6", n.Hops(a, b))
	}
	if n.Hops(a, a) != 0 {
		t.Error("self distance != 0")
	}
	if n.Hops(a, b) != n.Hops(b, a) {
		t.Error("asymmetric distance")
	}
}

func TestPathLengthMatchesHops(t *testing.T) {
	n := mesh(t, 3, 3, 3)
	f := func(s, d uint8) bool {
		src, dst := int(s)%27, int(d)%27
		return len(n.path(src, dst)) == n.Hops(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDimensionOrderRouting(t *testing.T) {
	n := mesh(t, 4, 4, 4)
	p := n.path(n.IDOf(Coord{0, 0, 0}), n.IDOf(Coord{2, 1, 3}))
	// X links first, then Y, then Z; never interleaved.
	lastDim := -1
	for _, l := range p {
		if l.dim < lastDim {
			t.Fatalf("route not dimension-ordered: %+v", p)
		}
		lastDim = l.dim
	}
	if len(p) != 6 {
		t.Fatalf("path length = %d", len(p))
	}
}

func TestZeroLoadLatency(t *testing.T) {
	n := mesh(t, 4, 1, 1)
	// 3 hops × 2 cycles + 2 × inject 1 = 8.
	if got := n.ZeroLoadLatency(0, 3); got != 8 {
		t.Errorf("ZeroLoadLatency = %d, want 8", got)
	}
	if got := n.ZeroLoadLatency(2, 2); got != 1 {
		t.Errorf("self latency = %d, want 1", got)
	}
}

func TestSendMatchesZeroLoadWhenIdle(t *testing.T) {
	for dst := 0; dst < 9; dst++ {
		n := mesh(t, 3, 3, 1) // fresh: no link reservations
		arr := send(t, n, 0, dst, 1000)
		want := 1000 + n.ZeroLoadLatency(0, dst)
		if arr != want {
			t.Errorf("Send(0→%d) = %d, want %d", dst, arr, want)
		}
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	n := mesh(t, 2, 1, 1)
	// Two same-cycle messages over the single 0→1 link: the second is
	// delayed by the link reservation.
	a1 := send(t, n, 0, 1, 0)
	a2 := send(t, n, 0, 1, 0)
	if a2 <= a1 {
		t.Errorf("contending messages arrived %d, %d — no serialization", a1, a2)
	}
	if n.Stats().ContentionCycles == 0 {
		t.Error("no contention recorded")
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	n := mesh(t, 2, 2, 1)
	// 0→1 uses the X link at (0,0); 2→3 uses the X link at (0,1):
	// disjoint.
	a1 := send(t, n, 0, 1, 0)
	a2 := send(t, n, 2, 3, 0)
	if a1 != a2 {
		t.Errorf("disjoint sends %d vs %d", a1, a2)
	}
	if n.Stats().ContentionCycles != 0 {
		t.Errorf("phantom contention: %d", n.Stats().ContentionCycles)
	}
}

func TestLatencyGrowsWithDistance(t *testing.T) {
	n := mesh(t, 8, 1, 1)
	prev := uint64(0)
	for dst := 1; dst < 8; dst++ {
		l := n.ZeroLoadLatency(0, dst)
		if l <= prev {
			t.Fatalf("latency not monotone: %d then %d", prev, l)
		}
		prev = l
	}
}

func TestStatsAccounting(t *testing.T) {
	n := mesh(t, 2, 2, 2)
	send(t, n, 0, 7, 0) // 3 hops
	st := n.Stats()
	if st.Messages != 1 || st.TotalHops != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalLatency != n.ZeroLoadLatency(0, 7) {
		t.Errorf("latency accounting = %d", st.TotalLatency)
	}
}

func TestKindNames(t *testing.T) {
	for _, k := range []Kind{ReadReq, ReadReply, WriteReq, WriteAck} {
		if k.String() == "" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind name")
	}
}

func TestSendErrorsOutOfRange(t *testing.T) {
	n := mesh(t, 2, 1, 1)
	for _, c := range [][2]int{{0, 9}, {9, 0}, {-1, 1}, {0, -1}, {2, 0}} {
		if _, err := n.Send(c[0], c[1], 0); !errors.Is(err, ErrNodeRange) {
			t.Errorf("Send(%d→%d) err = %v, want ErrNodeRange", c[0], c[1], err)
		}
	}
	if st := n.Stats(); st.Messages != 0 {
		t.Errorf("rejected sends counted as messages: %+v", st)
	}
}

// TestLinkTableMatchesPathModel: Send's dense link table reserves
// exactly the links of the materialized dimension-order path. A
// reference network keyed by link value replays the same seeded
// traffic (bursts on shared cycles, so links contend), and every
// arrival and counter must agree, on cubic and lopsided meshes.
func TestLinkTableMatchesPathModel(t *testing.T) {
	for _, dims := range [][3]int{{2, 2, 2}, {4, 4, 4}, {5, 1, 3}, {1, 6, 2}} {
		n := mesh(t, dims[0], dims[1], dims[2])
		busy := map[link]uint64{}
		var want Stats
		x := uint64(dims[0]*100 + dims[1]*10 + dims[2])
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			src, dst := int(x>>33)%n.Nodes(), int(x>>45)%n.Nodes()
			now += (x >> 60) & 1 // two messages per cycle on average
			// Reference: walk the materialized path over the keyed table.
			t0 := now + n.cfg.InjectLatency
			for _, l := range n.path(src, dst) {
				want.TotalHops++
				if b := busy[l]; b > t0 {
					want.ContentionCycles += b - t0
					t0 = b
				}
				busy[l] = t0 + 1
				t0 += n.cfg.RouterLatency
			}
			if src != dst {
				t0 += n.cfg.InjectLatency
			}
			want.Messages++
			want.TotalLatency += t0 - now
			if got := send(t, n, src, dst, now); got != t0 {
				t.Fatalf("%v mesh message %d (%d→%d at %d): arrival %d, path model %d", dims, i, src, dst, now, got, t0)
			}
		}
		if got := n.Stats(); got != want {
			t.Errorf("%v mesh stats:\n got %+v\nwant %+v", dims, got, want)
		}
		if want.ContentionCycles == 0 {
			t.Errorf("%v mesh: traffic never contended; the check is vacuous", dims)
		}
	}
}
