package flowtree

import (
	"slices"

	"megadata/internal/flow"
)

// maxDepth bounds a node's depth: the canonical chain at its longest, one
// prefix bit per step.
const maxDepth = 3 + 2*32

// sized returns s at length n, reallocated only if its capacity is short;
// what it holds is unspecified.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// addBatchPooled is AddBatch for a budgeted tree whose batch can cross the
// budget. The tree never grows: its nodes are laid out in the pooled
// pointer-free list the wire loader uses, the records land there (table
// lookups instead of the key index, new nodes without child arrays), the
// budget is enforced there, and the survivors are adopted back exact-fit
// with the key index deferred, as Clone and Decode leave it. At rest the
// tree owns no slack and no scratch — with one shard the tree a batch leaves
// behind is the sealed epoch itself, so whatever it kept would sit in the
// retention ring once per epoch.
//
// The fold is CompressTo's, decision for decision: the same candidates in
// the same strict order (which never looks at where a node is stored), the
// same majority/minority split. The majority fold happens in the lay-out;
// a minority fold is handed to CompressTo on the adopted tree, which keeps
// one implementation of the sequential fold and of what it does under a
// non-monotone score.
func (t *Tree) addBatchPooled(recs []flow.Record) {
	sc := loadPool.Get().(*loadScratch)
	// As in load: most records bring a few nodes, put grows the table for
	// a batch that brings more.
	sc.begin(t.live + 4*len(recs))
	sc.layTree(t)
	for _, r := range recs {
		ni := sc.place(r.Key, t.stepBits)
		sc.nodes[ni].own.Add(flow.CountersOf(r))
	}
	live, target := len(sc.nodes), max(t.restTarget(), 1)
	switch k := live - target; {
	case live <= t.budget:
		t.adopt(sc.nodes)
	case 2*k >= live:
		t.adopt(sc.foldMajority(k, t.score))
	default:
		t.adopt(sc.nodes)
		// CompressTo borrows the pooled candidate list for the call.
		t.fold = sc.fold
		t.CompressTo(target)
		sc.fold, t.fold = t.fold, nil
	}
	loadPool.Put(sc)
}

// layTree lays out t's live nodes level by level. Slab order is not
// parent-first once a rebuild fold has permuted it or free slots were
// reused; level order is, whatever the slab went through.
func (sc *loadScratch) layTree(t *Tree) {
	// next[d] becomes the offset the next node of depth d goes to.
	var next [maxDepth + 2]int32
	for i := range t.slab {
		if d := t.slab[i].depth; d >= 0 {
			next[d+1]++
		}
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	remap := sized(sc.remap, len(t.slab))
	for i := range t.slab {
		if d := t.slab[i].depth; d >= 0 {
			remap[i] = next[d]
			next[d]++
		}
	}
	nodes := sized(sc.nodes, t.live)
	for i := range t.slab {
		n := &t.slab[i]
		if n.depth < 0 {
			continue
		}
		parent := noNode
		if n.parent != noNode {
			parent = remap[n.parent]
		}
		nodes[remap[i]] = loadNode{key: n.key, own: n.own, parent: parent, depth: n.depth}
	}
	for i := range nodes {
		sc.at.put(nodes, int32(i))
	}
	sc.nodes, sc.remap = nodes, remap
}

// foldMajority folds the k least popular nodes of the lay-out into their
// nearest surviving ancestors — compressRebuild's fold, where parent-first
// order turns its ancestor walks into two sweeps — and returns the
// survivors, compacted in place and still parent-first.
func (sc *loadScratch) foldMajority(k int, score flow.Score) []loadNode {
	nodes := sc.nodes
	// Aggregates bottom-up; a node's is final, and its score with it, once
	// the sweep has passed all its children.
	agg := sized(sc.agg, len(nodes))
	for i := range nodes {
		agg[i] = nodes[i].own
	}
	items := sc.fold[:0]
	for i := len(nodes) - 1; i > 0; i-- {
		agg[nodes[i].parent].Add(agg[i])
		items = append(items, foldItem{idx: int32(i), s: agg[i].ScoreWith(score), depth: nodes[i].depth})
	}
	quickselectFold(items, k, func(idx int32) flow.Key { return nodes[idx].key })
	for _, it := range items[:k] {
		nodes[it.idx].depth = freeDepth
	}
	// Weights climb child to parent through folded nodes and stop at the
	// first survivor.
	for i := len(nodes) - 1; i > 0; i-- {
		if nodes[i].depth < 0 {
			nodes[nodes[i].parent].own.Add(nodes[i].own)
		}
	}
	// remap sends a survivor to its compacted offset and a folded node to
	// its nearest surviving ancestor's.
	remap := sized(sc.remap, len(nodes))
	remap[rootIdx] = rootIdx
	w := int32(1)
	for i := 1; i < len(nodes); i++ {
		parent := remap[nodes[i].parent]
		if nodes[i].depth < 0 {
			remap[i] = parent
			continue
		}
		remap[i] = w
		nodes[w] = nodes[i]
		nodes[w].parent = parent
		w++
	}
	sc.agg, sc.fold, sc.remap = agg, items[:0], remap
	return nodes[:w]
}
