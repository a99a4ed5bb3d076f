package flowtree

import (
	"container/heap"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"megadata/internal/flow"
	"megadata/internal/workload"
)

// refFoldHeap is the pre-PR2 container/heap fold, kept as the equivalence
// baseline and benchmark reference for the sort-based CompressTo: entries
// may be stale and are revalidated when popped. Ported from node pointers
// to slab indices with the arena rewrite; the fold logic is unchanged.
type refFoldHeap struct {
	items []refFoldItem
}

type refFoldItem struct {
	i int32
	s uint64
}

func (h refFoldHeap) Len() int            { return len(h.items) }
func (h refFoldHeap) Less(i, j int) bool  { return h.items[i].s < h.items[j].s }
func (h refFoldHeap) Swap(i, j int)       { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refFoldHeap) Push(x interface{}) { h.items = append(h.items, x.(refFoldItem)) }
func (h *refFoldHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// compressToHeap is the heap-based incremental fold the sort-based
// CompressTo replaced: fold the least popular leaf, cascading to parents
// that become new leaves. It never inserts nodes, so slab indices held in
// the heap stay valid across folds (dead slots are detected by depth).
func compressToHeap(t *Tree, target int) {
	if target < 1 {
		target = 1
	}
	if t.live <= target {
		return
	}
	t.dirty()
	h := &refFoldHeap{}
	h.items = make([]refFoldItem, 0, len(t.nodes))
	for i := 1; i < len(t.slab); i++ {
		n := &t.slab[i]
		if n.depth >= 0 && n.isLeaf() {
			h.items = append(h.items, refFoldItem{i: int32(i), s: n.agg.ScoreWith(t.score)})
		}
	}
	// Materialize a possibly-deferred index up front: the fold deletes
	// from it, and the test inspects it afterwards.
	t.index()
	heap.Init(h)
	for t.live > target && h.Len() > 0 {
		it := heap.Pop(h).(refFoldItem)
		n := &t.slab[it.i]
		if n.depth < 0 || !n.isLeaf() {
			continue
		}
		if cur := n.agg.ScoreWith(t.score); cur != it.s {
			heap.Push(h, refFoldItem{i: it.i, s: cur})
			continue
		}
		p := n.parent
		t.slab[p].own.Add(n.own)
		t.removeChild(p, it.i)
		delete(t.nodes, n.key)
		n.depth = freeDepth
		t.free = append(t.free, it.i)
		t.live--
		if p != rootIdx && t.slab[p].isLeaf() {
			heap.Push(h, refFoldItem{i: p, s: t.slab[p].agg.ScoreWith(t.score)})
		}
	}
}

// Property: the sort-based bulk fold is equivalent to the heap-based fold —
// identical totals, identical node counts (within the requested target),
// identical fold-score frontier, and Query stays a lower bound of the
// uncompressed tree on both.
func TestPropSortFoldEquivalentToHeapFold(t *testing.T) {
	f := func(xs []uint32, target8 uint8) bool {
		target := int(target8)%300 + 2
		full, _ := New(0)
		var keys []flow.Key
		for _, x := range xs {
			r := randomRecord(x, x*2654435761, uint16(x), uint16(x>>16), x%100000)
			full.Add(r)
			keys = append(keys, r.Key)
		}
		sorted := full.Clone()
		heaped := full.Clone()
		sorted.CompressTo(target)
		compressToHeap(heaped, target)
		if sorted.Total() != heaped.Total() || sorted.Total() != full.Total() {
			return false
		}
		if sorted.Len() != heaped.Len() || sorted.Len() > max(target, 1) {
			return false
		}
		for _, k := range keys {
			truth := full.Query(k)
			qs, qh := sorted.Query(k), heaped.Query(k)
			if qs.Bytes > truth.Bytes || qh.Bytes > truth.Bytes {
				return false // compressed queries must stay lower bounds
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The two folds must agree not only on invariants but on attribution: on a
// trace with distinct scores, both keep exactly the same node set.
func TestSortFoldMatchesHeapFoldNodeSet(t *testing.T) {
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 7, Skew: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := New(0)
	base.AddBatch(g.Records(20000))
	for _, target := range []int{64, 512, 4096} {
		sorted := base.Clone()
		heaped := base.Clone()
		sorted.CompressTo(target)
		compressToHeap(heaped, target)
		if sorted.Len() != heaped.Len() {
			t.Fatalf("target %d: sort fold kept %d nodes, heap fold %d", target, sorted.Len(), heaped.Len())
		}
		mismatch := 0
		for k := range sorted.index() {
			if _, ok := heaped.index()[k]; !ok {
				mismatch++
			}
		}
		// Equal-score ties may resolve differently (the heap breaks them by
		// sift order); anything beyond a sliver of the tree is a bug.
		if mismatch > sorted.Len()/50+2 {
			t.Errorf("target %d: %d of %d surviving nodes differ between folds", target, mismatch, sorted.Len())
		}
		for k, si := range sorted.nodes {
			hi, ok := heaped.nodes[k]
			if !ok {
				continue
			}
			sn, hn := &sorted.slab[si], &heaped.slab[hi]
			if sn.own != hn.own || sn.agg != hn.agg {
				t.Fatalf("target %d: node %v counters diverge: sort %+v/%+v heap %+v/%+v",
					target, k, sn.own, sn.agg, hn.own, hn.agg)
			}
		}
	}
}

// A score violating the documented monotonicity contract (nodes can
// outscore their ancestors) must degrade compression, never corrupt the
// tree: totals conserved, every node reachable from the root, aggregates
// consistent.
func TestCompressNonMonotoneScoreStaysConsistent(t *testing.T) {
	// Bytes-per-flow ratio: an ancestor aggregating many small flows
	// scores below its heavy-flow child.
	ratio := func(_, bytes, flows uint64) uint64 {
		if flows == 0 {
			return 0
		}
		return bytes / flows
	}
	for _, frac := range []float64{0.001, 0.1, 0.6, 0.9} { // rebuild and sequential+cascade paths
		tr, _ := New(0, WithScore(ratio))
		g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 3, Skew: 1.2})
		if err != nil {
			t.Fatal(err)
		}
		tr.AddBatch(g.Records(5000))
		target := int(float64(tr.Len()) * frac)
		if target < 2 {
			target = 2
		}
		before := tr.Total()
		tr.CompressTo(target)
		if tr.Total() != before {
			t.Fatalf("target %d: total changed: %+v -> %+v", target, before, tr.Total())
		}
		if tr.Len() > target {
			t.Fatalf("target %d: %d nodes remain (cascade fallback must reach the target)", target, tr.Len())
		}
		reachable := 0
		tr.walk(func(n *node) bool { reachable++; return true })
		if reachable != tr.Len() {
			t.Fatalf("target %d: %d nodes reachable, index has %d", target, reachable, tr.Len())
		}
		var sum flow.Counters
		for _, e := range tr.Entries() {
			sum.Add(e.Counters)
		}
		if sum != before {
			t.Fatalf("target %d: own weights sum to %+v, want %+v", target, sum, before)
		}
	}
}

// buildSkewedTree bulk-ingests a deterministic Zipf trace into an
// unbudgeted tree.
func buildSkewedTree(tb testing.TB, n int, skew float64) *Tree {
	tb.Helper()
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 42, Skew: skew})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(0)
	if err != nil {
		tb.Fatal(err)
	}
	tr.AddBatch(g.Records(n))
	return tr
}

// BenchmarkCompress prices one full compression of a skewed trace tree down
// to a node budget: the sort-based bulk fold (algo=sort) against the
// heap-based incremental fold it replaced (algo=heap). The tree is rebuilt
// per iteration via Clone (structural copy, untimed).
func BenchmarkCompress(b *testing.B) {
	for _, cfg := range []struct {
		records, budget int
	}{
		{100000, 4096},
		{1000000, 10000},
	} {
		base := buildSkewedTree(b, cfg.records, 1.2)
		for _, algo := range []string{"sort", "heap"} {
			name := fmt.Sprintf("records=%d/budget=%d/algo=%s", cfg.records, cfg.budget, algo)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tr := base.Clone()
					// Collect the clone's construction garbage outside the
					// timed section so both algorithms are measured on
					// their own work, not the copy's GC debt.
					runtime.GC()
					b.StartTimer()
					if algo == "sort" {
						tr.CompressTo(cfg.budget)
					} else {
						compressToHeap(tr, cfg.budget)
					}
				}
				b.ReportMetric(float64(base.Len()-cfg.budget), "folds/op")
			})
		}
	}
}

// BenchmarkAddBatch prices the bulk ingest path (the overshoot laid out and
// folded in pooled scratch, one compression per 4096-record batch) against
// per-record Add on a budgeted tree, both legs in one body, and fails when
// the bulk path is not at least twice as fast — the claim primitive.BatchAdder
// and FlowtreeAggregator.AddBatch make for it.
func BenchmarkAddBatch(b *testing.B) {
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 42, Skew: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	recs := g.Records(100000)
	const budget, batch = 4096, 4096
	var serial, bulk time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		tr, _ := New(budget)
		for _, r := range recs {
			tr.Add(r)
		}
		serial += time.Since(start)
		start = time.Now()
		tr, _ = New(budget)
		for off := 0; off < len(recs); off += batch {
			tr.AddBatch(recs[off:min(off+batch, len(recs))])
		}
		bulk += time.Since(start)
	}
	flows := float64(len(recs) * b.N)
	ratio := serial.Seconds() / bulk.Seconds()
	b.ReportMetric(flows/serial.Seconds(), "serial_flows/s")
	b.ReportMetric(flows/bulk.Seconds(), "batch_flows/s")
	b.ReportMetric(ratio, "batch/serial")
	if ratio < 2 {
		b.Fatalf("AddBatch %.0f flows/s is %.2fx per-record Add %.0f flows/s (want >= 2x)",
			flows/bulk.Seconds(), ratio, flows/serial.Seconds())
	}
}

// BenchmarkClone prices the structural deep copy.
func BenchmarkClone(b *testing.B) {
	base := buildSkewedTree(b, 100000, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = base.Clone()
	}
}

// decodeBenchTree is a 4096-budget aggregator summary compressed to its
// 3072-node steady state — the frame the fleet's top-level hops carry.
func decodeBenchTree(tb testing.TB) *Tree {
	tb.Helper()
	tr := buildSkewedTree(tb, 100000, 1.2)
	tr.CompressTo(3072)
	return tr
}

// lowChurnDelta returns a receiver-side base (decoded, as a receiver holds
// it) and a v3 frame re-weighting one entry in fifty against it.
func lowChurnDelta(tb testing.TB, sender *Tree) (base *Tree, frame []byte) {
	tb.Helper()
	base, err := Decode(sender.AppendBinary(nil), 0)
	if err != nil {
		tb.Fatal(err)
	}
	cur := sender.Clone()
	for i, e := range cur.Entries() {
		if i%50 == 0 {
			cur.AddCounters(e.Key, flow.Counters{Packets: 1, Bytes: 100, Flows: 1})
		}
	}
	if frame, err = cur.AppendDelta(nil, sender); err != nil {
		tb.Fatal(err)
	}
	return base, frame
}

// BenchmarkDecode prices receiving a full v2 frame, per node of the
// resulting tree (the ledger's flowtree.decode_ns_per_node).
func BenchmarkDecode(b *testing.B) {
	wire := decodeBenchTree(b).AppendBinary(nil)
	var tr *Tree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if tr, err = Decode(wire, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/node")
}

// BenchmarkDecodeDelta prices applying a low-churn v3 frame onto the
// retained base, per node of the resulting tree.
func BenchmarkDecodeDelta(b *testing.B) {
	base, frame := lowChurnDelta(b, decodeBenchTree(b))
	var tr *Tree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if tr, err = DecodeDelta(frame, base, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/node")
}
