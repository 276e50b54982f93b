// Package routing implements the link-state routing substrate the detection
// protocols assume (§2.1.6, §4.1): LSA flooding, deterministic shortest-path
// computation, and — the response mechanism of §2.4.3/§5.3.1 — policy-based
// forwarding that excises suspected path-segments from the routing fabric.
//
// Exclusions are realized by routing on the line graph (states are directed
// links, collapsed to routers wherever no transition is forbidden) with
// forbidden transitions: a suspected 2-segment ⟨a,b⟩ removes the
// directed link a→b, and a suspected x-segment forbids each of its interior
// transitions ⟨u,v,w⟩, so no traffic traverses the segment while the
// adjacent routers remain usable on other paths — exactly the "less
// aggressive countermeasure" the paper selects.
package routing

import (
	"sort"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// Exclusions is the set of suspected path-segments removed from the routing
// fabric.
type Exclusions struct {
	segments map[topology.SegmentKey]topology.Segment
	links    map[[2]packet.NodeID]bool
	trans    map[[3]packet.NodeID]bool
	// version counts successful Adds; the set only grows, so equal versions
	// imply equal sets. Recompute memoization keys on it.
	version uint64
}

// NewExclusions returns an empty exclusion set.
func NewExclusions() *Exclusions {
	return &Exclusions{
		segments: make(map[topology.SegmentKey]topology.Segment),
		links:    make(map[[2]packet.NodeID]bool),
		trans:    make(map[[3]packet.NodeID]bool),
	}
}

// Add excises a path-segment: a 2-segment removes its directed link; longer
// segments forbid each interior transition. Adding a segment of length < 2
// is a no-op. It reports whether the segment was new.
func (e *Exclusions) Add(seg topology.Segment) bool {
	if len(seg) < 2 {
		return false
	}
	key := topology.Key(seg)
	if _, ok := e.segments[key]; ok {
		return false
	}
	e.segments[key] = append(topology.Segment(nil), seg...)
	e.version++
	if len(seg) == 2 {
		e.links[[2]packet.NodeID{seg[0], seg[1]}] = true
		return true
	}
	for i := 0; i+2 < len(seg); i++ {
		e.trans[[3]packet.NodeID{seg[i], seg[i+1], seg[i+2]}] = true
	}
	return true
}

// Has reports whether the exact segment was excluded.
func (e *Exclusions) Has(seg topology.Segment) bool {
	_, ok := e.segments[topology.Key(seg)]
	return ok
}

// Segments returns all excluded segments.
func (e *Exclusions) Segments() []topology.Segment {
	ss := make(topology.SegmentSet)
	for _, seg := range e.segments {
		ss.Add(seg)
	}
	return ss.Slice()
}

// Len returns the number of excluded segments.
func (e *Exclusions) Len() int { return len(e.segments) }

// Version returns a counter incremented on every successful Add. Because the
// set is grow-only, two observations with equal versions saw identical sets.
func (e *Exclusions) Version() uint64 { return e.version }

// LinkExcluded reports whether the directed link u→v is excised.
func (e *Exclusions) LinkExcluded(u, v packet.NodeID) bool {
	return e.links[[2]packet.NodeID{u, v}]
}

// TransitionForbidden reports whether forwarding u→v→w is excised.
func (e *Exclusions) TransitionForbidden(u, v, w packet.NodeID) bool {
	return e.trans[[3]packet.NodeID{u, v, w}]
}

// Table is a computed forwarding table for one router: next hop keyed by
// (inbound neighbor, destination). The inbound dimension implements the
// paper's policy-based routing (§5.3.1): traffic that arrived along the
// prefix of a suspected segment must not continue along its suffix.
type Table struct {
	router packet.NodeID
	// ctx lists the entry contexts: the router itself (locally originated
	// traffic) first, then its neighbors in ascending ID order.
	ctx []packet.NodeID
	// rows[i*n+dst] is the next hop toward dst for traffic entering from
	// ctx[i], -1 if unreachable.
	rows []packet.NodeID
	n    int
}

// NextHop returns the next hop for a packet from inbound neighbor from
// (equal to the table's router for locally originated traffic) toward dst.
// An unknown inbound neighbor (e.g. mis-delivered traffic) falls back to the
// locally-originated row, which has no transition constraint.
func (t *Table) NextHop(from, dst packet.NodeID) (packet.NodeID, bool) {
	if uint32(dst) >= uint32(t.n) {
		return -1, false
	}
	i := 0
	for j, c := range t.ctx {
		if c == from {
			i = j
			break
		}
	}
	nh := t.rows[i*t.n+int(dst)]
	return nh, nh >= 0
}

// ComputeTable builds router r's forwarding table over graph g with the
// given exclusions. Row from holds, for every destination v, the first hop
// of the lexicographically smallest (distance, first hop) walk from r to v
// that enters r from from, leaves over a link other than back to from, and
// uses no excluded link or forbidden transition.
func ComputeTable(g *topology.Graph, r packet.NodeID, excl *Exclusions) *Table {
	var s searcher
	s.loadGraph(g)
	return s.table(r, excl)
}

// searcher is the reusable scratch of the table search: a dense adjacency,
// the search state space derived from an exclusion set, and the Dijkstra
// arrays. Each Daemon owns one, so concurrent prepares share nothing.
//
// Routing with forbidden transitions is Dijkstra on the line graph, whose
// states are directed links. Only a router v that is the middle of some
// forbidden transition ⟨u,v,w⟩ needs to know which link it was entered by;
// at every other router all incoming link states expand identically, so
// they collapse into one node state without changing any label. States
// 0..n-1 are therefore the routers, and states n.. are the links into
// middle routers.
type searcher struct {
	n int
	// Dense adjacency: router v's out-links are off[v]..off[v+1]-1, with
	// far ends dst (ascending) and advertised costs cost.
	off  []int32
	dst  []packet.NodeID
	cost []int64

	// The state space for one exclusion set. Per link: excluded marks an
	// excised link, next the state its traversal reaches. Per router: mid
	// marks the middle of a forbidden transition. Per state: head is the
	// router it sits at. For link state n+k, forb[forbBase[k]+j] forbids
	// leaving over its head's j-th out-link.
	excluded []bool
	next     []int32
	mid      []bool
	head     []packet.NodeID
	forbBase []int32
	forb     []bool

	// Dijkstra scratch, one entry per state: best tentative label (dist,
	// hop) and the settled mark.
	dist []int64
	hop  []packet.NodeID
	done []bool
	heap stateHeap

	// pops and relaxations count settled states and label improvements
	// over the searcher's lifetime: deterministic work counters.
	pops, relaxations int64
}

// reset empties the adjacency for an n-router graph.
func (s *searcher) reset(n int) {
	s.n = n
	s.off = append(s.off[:0], 0)
	s.dst = s.dst[:0]
	s.cost = s.cost[:0]
}

// loadGraph reads g's links into the dense adjacency.
func (s *searcher) loadGraph(g *topology.Graph) {
	s.reset(g.NumNodes())
	for v := 0; v < s.n; v++ {
		for _, w := range g.Neighbors(packet.NodeID(v)) {
			l, _ := g.Link(packet.NodeID(v), w)
			s.dst = append(s.dst, w)
			s.cost = append(s.cost, int64(l.Cost))
		}
		s.off = append(s.off, int32(len(s.dst)))
	}
}

// loadLSDB reads the topology as advertised into the dense adjacency. A
// link u→v exists iff u advertises v and the link exists physically in
// truth (LSAs are trusted here; securing the control plane is §1.1.1's
// problem, explicitly out of scope for the detectors). Its cost is the
// advertised one; if u advertises v twice, the later entry wins.
func (s *searcher) loadLSDB(truth *topology.Graph, lsdb map[packet.NodeID]*LSA) {
	s.reset(truth.NumNodes())
	for o := 0; o < s.n; o++ {
		if lsa := lsdb[packet.NodeID(o)]; lsa != nil {
			start := len(s.dst)
			for _, nb := range lsa.Neighbors {
				if truth.HasLink(packet.NodeID(o), nb.ID) {
					s.dst = append(s.dst, nb.ID)
					s.cost = append(s.cost, int64(nb.Cost))
				}
			}
			s.normalize(start)
		}
		s.off = append(s.off, int32(len(s.dst)))
	}
}

// normalize sorts the out-links appended since start by far end and drops
// all but the last entry for a repeated far end. Originated LSAs are
// already sorted and duplicate-free, which the first loop confirms.
func (s *searcher) normalize(start int) {
	ids, costs := s.dst[start:], s.cost[start:]
	sorted := true
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	type entry struct {
		id   packet.NodeID
		cost int64
	}
	es := make([]entry, len(ids))
	for i := range ids {
		es[i] = entry{ids[i], costs[i]}
	}
	sort.SliceStable(es, func(i, j int) bool { return es[i].id < es[j].id })
	k := 0
	for i, e := range es {
		if i+1 < len(es) && es[i+1].id == e.id {
			continue
		}
		ids[k], costs[k] = e.id, e.cost
		k++
	}
	s.dst, s.cost = s.dst[:start+k], s.cost[:start+k]
}

// link returns the index of link u→v, or -1.
func (s *searcher) link(u, v packet.NodeID) int32 {
	if uint32(u) >= uint32(s.n) {
		return -1
	}
	for e := s.off[u]; e < s.off[u+1]; e++ {
		if s.dst[e] == v {
			return e
		}
	}
	return -1
}

// build derives the state space for excl from the loaded adjacency.
func (s *searcher) build(excl *Exclusions) {
	n, m := s.n, len(s.dst)
	s.excluded = zeroed(s.excluded, m)
	for l := range excl.links {
		if e := s.link(l[0], l[1]); e >= 0 {
			s.excluded[e] = true
		}
	}
	s.mid = zeroed(s.mid, n)
	for t := range excl.trans {
		if uint32(t[1]) < uint32(n) {
			s.mid[t[1]] = true
		}
	}
	s.head = s.head[:0]
	for v := 0; v < n; v++ {
		s.head = append(s.head, packet.NodeID(v))
	}
	s.next = zeroed(s.next, m)
	s.forbBase, s.forb = s.forbBase[:0], s.forb[:0]
	for u := 0; u < n; u++ {
		for e := s.off[u]; e < s.off[u+1]; e++ {
			v := s.dst[e]
			if !s.mid[v] {
				s.next[e] = int32(v)
				continue
			}
			s.next[e] = int32(len(s.head))
			s.head = append(s.head, v)
			s.forbBase = append(s.forbBase, int32(len(s.forb)))
			for f := s.off[v]; f < s.off[v+1]; f++ {
				s.forb = append(s.forb, excl.TransitionForbidden(packet.NodeID(u), v, s.dst[f]))
			}
		}
	}
	states := len(s.head)
	s.dist = zeroed(s.dist, states)
	s.hop = zeroed(s.hop, states)
	s.done = zeroed(s.done, states)
}

// zeroed returns b resized to n zero values, reusing its capacity.
func zeroed[T any](b []T, n int) []T {
	return append(b[:0], make([]T, n)...)
}

// table computes router r's full table: one search per entry context.
func (s *searcher) table(r packet.NodeID, excl *Exclusions) *Table {
	s.build(excl)
	n := s.n
	var nbs []packet.NodeID
	if uint32(r) < uint32(n) {
		nbs = s.dst[s.off[r]:s.off[r+1]]
	}
	t := &Table{
		router: r,
		ctx:    append(append(make([]packet.NodeID, 0, len(nbs)+1), r), nbs...),
		rows:   make([]packet.NodeID, (len(nbs)+1)*n),
		n:      n,
	}
	for i, from := range t.ctx {
		s.row(r, from, excl, t.rows[i*n:(i+1)*n])
	}
	return t
}

// row fills next hops at router r for traffic entering from neighbor from
// (or originated locally when from == r). Labels are (distance, first hop)
// pairs compared lexicographically; extending a walk adds a non-negative
// cost and keeps its first hop, so Dijkstra settles every state with its
// least label and the first settled state at router v carries v's row
// entry, whatever order equal labels pop in.
func (s *searcher) row(r, from packet.NodeID, excl *Exclusions, row []packet.NodeID) {
	for i := range row {
		row[i] = -1
	}
	if uint32(r) >= uint32(s.n) {
		return
	}
	const inf = int64(1) << 62
	for i := range s.dist {
		s.dist[i] = inf
		s.done[i] = false
	}
	s.heap = s.heap[:0]
	// Seeds: the first hop out of r. The arrival context constrains only
	// this step — no immediate U-turn, no forbidden ⟨from, r, nb⟩.
	for e := s.off[r]; e < s.off[r+1]; e++ {
		nb := s.dst[e]
		if s.excluded[e] {
			continue
		}
		if from != r && (nb == from || s.mid[r] && excl.TransitionForbidden(from, r, nb)) {
			continue
		}
		s.relax(s.next[e], s.cost[e], nb)
	}
	reached := 0
	for len(s.heap) > 0 {
		it := s.heap.pop()
		st := it.state
		if s.done[st] {
			continue
		}
		s.done[st] = true
		s.pops++
		v := s.head[st]
		if row[v] < 0 {
			row[v] = it.hop
			if reached++; reached == s.n {
				return
			}
		}
		lo, hi := s.off[v], s.off[v+1]
		var forb []bool
		if int(st) >= s.n {
			base := s.forbBase[int(st)-s.n]
			forb = s.forb[base : base+hi-lo]
		}
		for e := lo; e < hi; e++ {
			if s.excluded[e] || forb != nil && forb[e-lo] {
				continue
			}
			s.relax(s.next[e], it.dist+s.cost[e], it.hop)
		}
	}
}

// relax offers label (d, hop) to state st.
func (s *searcher) relax(st int32, d int64, hop packet.NodeID) {
	if s.done[st] || d > s.dist[st] || d == s.dist[st] && hop >= s.hop[st] {
		return
	}
	s.dist[st], s.hop[st] = d, hop
	s.relaxations++
	s.heap.push(heapItem{dist: d, hop: hop, state: st})
}

// heapItem is a tentative label for a search state.
type heapItem struct {
	dist  int64
	hop   packet.NodeID
	state int32
}

func (a heapItem) less(b heapItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hop != b.hop {
		return a.hop < b.hop
	}
	return a.state < b.state
}

// stateHeap is a binary min-heap of labels ordered by (dist, hop, state).
type stateHeap []heapItem

func (h *stateHeap) push(it heapItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *stateHeap) pop() heapItem {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q[c+1].less(q[c]) {
			c++
		}
		if !q[c].less(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// PathFromTables traces the path a packet from src to dst takes under the
// given per-router tables, for tests and experiments. It returns nil if the
// packet would be dropped (no route) and caps at maxHops to catch loops.
func PathFromTables(tables map[packet.NodeID]*Table, src, dst packet.NodeID, maxHops int) topology.Path {
	path := topology.Path{src}
	from := src
	cur := src
	for cur != dst {
		if len(path) > maxHops {
			return nil
		}
		tbl := tables[cur]
		if tbl == nil {
			return nil
		}
		nh, ok := tbl.NextHop(from, dst)
		if !ok {
			return nil
		}
		from = cur
		cur = nh
		path = append(path, cur)
	}
	return path
}

// Timers are the OSPF-style route computation timers the Fatih evaluation
// depends on (§5.3.2): Delay before recomputing after a triggering event,
// Hold between consecutive computations.
type Timers struct {
	Delay time.Duration
	Hold  time.Duration
}

// DefaultTimers returns the Zebra defaults used in the paper: 5 s delay,
// 10 s hold.
func DefaultTimers() Timers {
	return Timers{Delay: 5 * time.Second, Hold: 10 * time.Second}
}
