package routing

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// The reference implementation ComputeTable replaced: a full line-graph
// Dijkstra per entry context, with one state per directed link everywhere.
// It is kept only as the oracle the collapsed search is checked against.

// edgeState indexes a directed link for line-graph Dijkstra.
type edgeState struct {
	u, v packet.NodeID
}

type lgItem struct {
	st   edgeState
	dist int64
	// firstHop is the next hop out of the computing router for the path
	// this state lies on; carried through so the row can be filled.
	firstHop packet.NodeID
}

type lgHeap []lgItem

func (h lgHeap) Len() int { return len(h) }
func (h lgHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	if h[i].firstHop != h[j].firstHop {
		return h[i].firstHop < h[j].firstHop
	}
	if h[i].st.u != h[j].st.u {
		return h[i].st.u < h[j].st.u
	}
	return h[i].st.v < h[j].st.v
}
func (h lgHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *lgHeap) Push(x any)     { *h = append(*h, x.(lgItem)) }
func (h *lgHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }

// computeRow computes next hops at router r for traffic entering from
// neighbor from (or originated locally when from == r).
func computeRow(g *topology.Graph, r, from packet.NodeID, excl *Exclusions) []packet.NodeID {
	n := g.NumNodes()
	row := make([]packet.NodeID, n)
	bestDist := make([]int64, n)
	const inf = int64(1) << 62
	for i := range row {
		row[i] = -1
		bestDist[i] = inf
	}

	type seenKey = edgeState
	seen := make(map[seenKey]bool)
	h := &lgHeap{}

	for _, nb := range g.Neighbors(r) {
		if excl.LinkExcluded(r, nb) {
			continue
		}
		if from != r && excl.TransitionForbidden(from, r, nb) {
			continue
		}
		if from != r && nb == from {
			continue // no immediate U-turn back over the arrival link
		}
		link, _ := g.Link(r, nb)
		heap.Push(h, lgItem{st: edgeState{r, nb}, dist: int64(link.Cost), firstHop: nb})
	}

	for h.Len() > 0 {
		it := heap.Pop(h).(lgItem)
		if seen[it.st] {
			continue
		}
		seen[it.st] = true
		v := it.st.v
		if it.dist < bestDist[v] {
			bestDist[v] = it.dist
			row[v] = it.firstHop
		}
		for _, w := range g.Neighbors(v) {
			next := edgeState{v, w}
			if seen[next] {
				continue
			}
			if excl.LinkExcluded(v, w) {
				continue
			}
			if excl.TransitionForbidden(it.st.u, v, w) {
				continue
			}
			link, _ := g.Link(v, w)
			heap.Push(h, lgItem{st: next, dist: it.dist + int64(link.Cost), firstHop: it.firstHop})
		}
	}
	return row
}

// checkTable compares tbl, router r's table over g, with the oracle on
// every entry context and destination.
func checkTable(g *topology.Graph, r packet.NodeID, excl *Exclusions, tbl *Table) error {
	contexts := append([]packet.NodeID{r}, g.Neighbors(r)...)
	if fmt.Sprint(tbl.ctx) != fmt.Sprint(contexts) {
		return fmt.Errorf("router %v: contexts %v, want %v", r, tbl.ctx, contexts)
	}
	for _, from := range contexts {
		want := computeRow(g, r, from, excl)
		for dst, w := range want {
			got, ok := tbl.NextHop(from, packet.NodeID(dst))
			if !ok {
				got = -1
			}
			if got != w {
				return fmt.Errorf("router %v from %v dst %d: next hop %v, oracle %v", r, from, dst, got, w)
			}
		}
	}
	return nil
}

// checkAllTables runs checkTable on ComputeTable for every router of g.
func checkAllTables(t *testing.T, name string, g *topology.Graph, excl *Exclusions) {
	t.Helper()
	for _, r := range g.Nodes() {
		if err := checkTable(g, r, excl, ComputeTable(g, r, excl)); err != nil {
			t.Fatalf("%s: %v (exclusions %v)", name, err, excl.Segments())
		}
	}
}

// randomWalkSegment returns a walk of length nodes along g's links from a
// random start, or nil if it dead-ends.
func randomWalkSegment(rng *rand.Rand, g *topology.Graph, length int) topology.Segment {
	seg := topology.Segment{packet.NodeID(rng.Intn(g.NumNodes()))}
	for len(seg) < length {
		nbs := g.Neighbors(seg[len(seg)-1])
		if len(nbs) == 0 {
			return nil
		}
		seg = append(seg, nbs[rng.Intn(len(nbs))])
	}
	return seg
}

// randomExclusions mixes 2-segments (link removals) with 3- to 5-segments
// (forbidden transitions), mostly along real links, sometimes arbitrary.
func randomExclusions(rng *rand.Rand, g *topology.Graph, count int) *Exclusions {
	excl := NewExclusions()
	for i := 0; i < count; i++ {
		length := 2 + rng.Intn(4)
		var seg topology.Segment
		if rng.Intn(5) == 0 {
			for j := 0; j < length; j++ {
				seg = append(seg, packet.NodeID(rng.Intn(g.NumNodes())))
			}
		} else {
			seg = randomWalkSegment(rng, g, length)
		}
		excl.Add(seg)
	}
	return excl
}

// randomDirectedGraph builds an n-router graph whose directed links have
// independent (asymmetric) costs, zero included, and some one-way links.
func randomDirectedGraph(rng *rand.Rand, n int, density float64) *topology.Graph {
	g := topology.NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("r%d", i))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < density {
				g.AddLink(topology.Link{From: packet.NodeID(u), To: packet.NodeID(v), Cost: rng.Intn(12)})
			}
		}
	}
	return g
}

// isp200 is the ISP topology the routing benchmarks and the isp-excise
// scenario run on.
func isp200() *topology.Graph {
	return topology.ISP(topology.ISPSpec{Nodes: 200, PoPs: 8, Seed: 7})
}

// threeSegmentsThrough excises every 3-segment along g's links that
// contains router x — the response to a Πk+2 (k=1) detection of x.
func threeSegmentsThrough(g *topology.Graph, x packet.NodeID) *Exclusions {
	excl := NewExclusions()
	for _, a := range g.Nodes() {
		for _, b := range g.Neighbors(a) {
			for _, c := range g.Neighbors(b) {
				if c != a && (a == x || b == x || c == x) {
					excl.Add(topology.Segment{a, b, c})
				}
			}
		}
	}
	return excl
}

// The collapsed search computes exactly the oracle's tables: every router,
// every entry context, on ISP topologies and asymmetric random graphs,
// under random mixes of link removals and forbidden transitions.
func TestComputeTableMatchesOracle(t *testing.T) {
	for _, spec := range []topology.ISPSpec{
		{Nodes: 40, PoPs: 2, Seed: 1},
		{Nodes: 60, PoPs: 3, Seed: 2},
		{Nodes: 96, PoPs: 4, Seed: 11},
	} {
		g := topology.ISP(spec)
		rng := rand.New(rand.NewSource(spec.Seed))
		checkAllTables(t, fmt.Sprintf("isp%d clean", spec.Nodes), g, NewExclusions())
		for trial := 0; trial < 3; trial++ {
			name := fmt.Sprintf("isp%d trial %d", spec.Nodes, trial)
			checkAllTables(t, name, g, randomExclusions(rng, g, 4+8*trial))
		}
		checkAllTables(t, fmt.Sprintf("isp%d router 0 excised", spec.Nodes), g, threeSegmentsThrough(g, 0))
	}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := randomDirectedGraph(rng, 3+rng.Intn(10), 0.15+0.4*rng.Float64())
		checkAllTables(t, fmt.Sprintf("random %d", trial), g, randomExclusions(rng, g, rng.Intn(12)))
	}
}

// The daemon's table, computed from its LSDB with no intermediate Graph,
// equals the oracle's over the advertised topology, with the daemon's own
// exclusions, after suspicions have been flooded and acted on.
func TestDaemonTablesMatchOracle(t *testing.T) {
	g := topology.ISP(topology.ISPSpec{Nodes: 60, PoPs: 3, Seed: 2})
	net := network.New(g, network.Options{Seed: 5})
	proto := AttachWith(net, Options{
		Timers:         Timers{Delay: time.Second, Hold: 2 * time.Second},
		StaggerRegions: true, BundleFlood: true, BatchCompute: true, Workers: 2,
	})
	if !proto.RunUntilConverged(5 * time.Minute) {
		t.Fatal("no convergence")
	}
	x := packet.NodeID(7)
	nbs := g.Neighbors(x)
	proto.Daemon(x).AnnounceSuspicion(topology.Segment{nbs[0], x, nbs[1]})
	proto.Daemon(nbs[0]).AnnounceSuspicion(topology.Segment{nbs[0], x})
	net.Run(net.Now() + 10*time.Second)
	if !proto.Converged() {
		t.Fatal("no convergence after suspicions")
	}
	for _, d := range proto.Daemons() {
		if d.Exclusions().Len() != 2 {
			t.Fatalf("router %v holds %d exclusions, want 2", d.ID(), d.Exclusions().Len())
		}
		if err := checkTable(g, d.ID(), d.Exclusions(), d.Table()); err != nil {
			t.Fatal(err)
		}
	}
}

// lsdbGraph builds the advertised topology as a Graph, the way the daemon
// did before it read the LSDB into dense adjacency directly.
func lsdbGraph(truth *topology.Graph, lsdb map[packet.NodeID]*LSA) *topology.Graph {
	g := topology.NewGraph()
	for _, id := range truth.Nodes() {
		g.AddNode(truth.Name(id))
	}
	origins := make([]packet.NodeID, 0, len(lsdb))
	for o := range lsdb {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, o := range origins {
		for _, nb := range lsdb[o].Neighbors {
			if l, ok := truth.Link(o, nb.ID); ok {
				l.Cost = nb.Cost
				g.AddLink(l)
			}
		}
	}
	return g
}

// LSAs that advertise links out of order, twice, or that do not exist
// physically read into the same adjacency a Graph would hold.
func TestLoadLSDBMatchesGraph(t *testing.T) {
	truth := topology.Line(5)
	truth.AddLink(topology.Link{From: 0, To: 4, Cost: 3})
	lsdb := map[packet.NodeID]*LSA{
		0: {Origin: 0, Neighbors: []NeighborEntry{{ID: 4, Cost: 9}, {ID: 1, Cost: 2}, {ID: 4, Cost: 1}, {ID: 3, Cost: 1}}},
		1: {Origin: 1, Neighbors: []NeighborEntry{{ID: 2, Cost: 5}, {ID: 0, Cost: 7}}},
		2: {Origin: 2, Neighbors: []NeighborEntry{{ID: 3, Cost: 1}, {ID: 1, Cost: 1}, {ID: 3, Cost: 4}, {ID: 9, Cost: 1}}},
		4: {Origin: 4, Neighbors: []NeighborEntry{{ID: 3, Cost: 1}}},
		7: {Origin: 7, Neighbors: []NeighborEntry{{ID: 0, Cost: 1}}},
	}
	want := lsdbGraph(truth, lsdb)
	var s searcher
	s.loadLSDB(truth, lsdb)
	var got searcher
	got.loadGraph(want)
	if fmt.Sprint(s.off, s.dst, s.cost) != fmt.Sprint(got.off, got.dst, got.cost) {
		t.Fatalf("LSDB adjacency %v %v %v, graph %v %v %v", s.off, s.dst, s.cost, got.off, got.dst, got.cost)
	}
	excl := NewExclusions()
	excl.Add(topology.Segment{1, 2, 3})
	for _, r := range want.Nodes() {
		if err := checkTable(want, r, excl, s.table(r, excl)); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzComputeTable decodes a small directed graph and an exclusion set from
// bytes and checks every router's table against the oracle. Layout: byte 0
// sizes the graph (2..9 routers), byte 1 counts links, then 3 bytes per
// link (from, to, cost); the rest is segments, each a length byte (2..5)
// followed by that many router bytes.
func FuzzComputeTable(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 1, 1, 2, 1, 2, 1, 1, 1, 0, 1, 1, 0, 1, 2})
	f.Add([]byte{4, 8, 0, 1, 1, 1, 0, 2, 1, 2, 1, 2, 1, 3, 2, 3, 0, 3, 3, 0, 1, 0, 3, 4, 2, 0, 1, 2, 0, 2, 3, 1})
	f.Add([]byte{5, 10, 0, 1, 0, 1, 2, 0, 2, 3, 5, 3, 4, 1, 4, 0, 2, 1, 0, 3, 2, 1, 1, 3, 2, 4, 4, 3, 1, 0, 1, 4, 0, 1, 2, 1, 2, 3, 0, 2, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%8
		g := topology.NewGraph()
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("r%d", i))
		}
		links, rest := int(data[1])%40, data[2:]
		for ; links > 0 && len(rest) >= 3; links-- {
			u, v := packet.NodeID(int(rest[0])%n), packet.NodeID(int(rest[1])%n)
			if u != v {
				g.AddLink(topology.Link{From: u, To: v, Cost: int(rest[2]) % 16})
			}
			rest = rest[3:]
		}
		excl := NewExclusions()
		for len(rest) > 0 {
			length := 2 + int(rest[0])%4
			rest = rest[1:]
			if len(rest) < length {
				break
			}
			seg := make(topology.Segment, length)
			for i := range seg {
				seg[i] = packet.NodeID(int(rest[i]) % n)
			}
			rest = rest[length:]
			excl.Add(seg)
		}
		for _, r := range g.Nodes() {
			if err := checkTable(g, r, excl, ComputeTable(g, r, excl)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// BenchmarkComputeTable computes the tables of all 200 routers of the ISP
// topology per op, on the clean graph and with every 3-segment through
// router 0 excised. pops/op and relaxations/op are deterministic work
// counts: settled search states and label improvements.
func BenchmarkComputeTable(b *testing.B) {
	g := isp200()
	for _, bc := range []struct {
		name string
		excl *Exclusions
	}{
		{"clean", NewExclusions()},
		{"excised", threeSegmentsThrough(g, 0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var pops, relaxations int64
			for i := 0; i < b.N; i++ {
				for _, r := range g.Nodes() {
					// ComputeTable's body, keeping the searcher's counters.
					var s searcher
					s.loadGraph(g)
					s.table(r, bc.excl)
					pops += s.pops
					relaxations += s.relaxations
				}
			}
			b.ReportMetric(float64(pops)/float64(b.N), "pops/op")
			b.ReportMetric(float64(relaxations)/float64(b.N), "relaxations/op")
		})
	}
}
