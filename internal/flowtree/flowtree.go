// Package flowtree implements Flowtree, the paper's exemplar novel
// computing primitive (Section VI): a self-adjusting tree over generalized
// flows. Each observed flow and each canonical generalization of it is a
// node; a node's parent is its most specific generalized flow. Every node
// carries a popularity annotation (packet/byte/flow counters); the
// popularity score of a node is its own weight plus that of its children.
//
// The tree self-adapts to the incoming data through a node budget: when the
// number of nodes exceeds the budget, the least popular leaves are folded
// into their parents (Compress), so hot traffic regions stay specific while
// cold regions are represented at coarser prefixes. All Table II operators
// are provided: Merge, Compress, Diff, Query, Drilldown, Top-k, Above-x and
// HHH.
//
// # Slab layout
//
// Nodes live in a flat slab ([]node) addressed by int32 offsets instead of
// pointers: parent links are slab indices, child sets are small sorted
// index arrays, and the key index maps flow.Key to a slab offset. The slab
// turns the hot paths cache-linear — compression collects fold candidates
// with one sequential sweep, Merge and Diff stream the source slab instead
// of chasing a pointer graph, and Clone is little more than a slab memcpy
// — and it takes the garbage collector out of the steady state: the
// only pointer-bearing field a node carries is its child-index slice, so a
// million-node tree is a handful of heap objects rather than a million
// individually scanned ones.
//
// Slab invariants:
//
//   - slab[0] is the root; it is never folded, freed or re-parented.
//   - A slot is live iff its depth is >= 0; the live count is tracked
//     (Len), and the live slots are exactly the values of the key index —
//     which is itself deferred in a new tree, after Clone, after a wire
//     decode and after a budgeted batch, and materialized from the slab on
//     first need, so read-only snapshot clones, received summaries and
//     trees fed only by batches never build it. Materializing is a
//     write, as is filling a cold entry cache: a tree shared between
//     readers (a FlowDB row that is also a hop's delta base, a sealed epoch
//     that is the shard's own tree) must only see
//     the operations that need neither — being a Merge/MergeAll/Diff
//     source, Query, TopK, AboveX, HHH, Clone and, on a primed cache (as a
//     decode leaves it), Entries, the encoders and DeltaHash.
//   - Folded slots are marked depth = -1 and pushed onto the free list;
//     ensure reuses them (retaining their child-array capacity) before
//     growing the slab. Free slots are never reachable from a live node.
//   - children holds the slab indices of a node's children sorted by the
//     children's keyLess order, so child lookup and removal binary-search
//     the (tiny) fanout instead of hashing.
//   - Bulk folds that discard most of the tree rebuild a compact slab of
//     the survivors (and reset the free list), handing the memory of
//     one-shot fan-in spikes back instead of pinning it.
//   - A decoded tree (Decode, DecodeDelta) is bulk-loaded, not grown: the
//     slab is exact-fit (len == cap == Len, no free slots), every child
//     array is a window of one shared backing array, the key index is
//     deferred and the entry cache below is primed with the list that came
//     off the wire. Nothing a receiver retains is slack. The decoders
//     accept canonical streams only — weighted entries, normalized keys,
//     strictly ascending — so that list is the tree's, as is.
//   - A budgeted tree at rest after an AddBatch that could cross its budget
//     is in the same state, minus the primed cache: exact-fit slab, shared
//     child backing, deferred key index, no fold scratch. (Free slots only
//     where the batch ended in a minority fold, fewer than the live nodes.)
//     A one-shard store seals that very tree as the epoch, so whatever it
//     kept beyond its nodes would be retained once per epoch.
//
// Because slab indices survive append-growth where interior pointers would
// not, mutation code holds indices across allocations and only materializes
// *node pointers between them.
//
// # Bulk operations
//
// Compression is a bulk sort-and-fold: every live non-root node is
// collected from the slab in one linear sweep with its popularity score,
// sorted ascending (descendants before ancestors on ties), and the least
// popular prefix is folded in order. A fold moves a node's own weight into
// its parent and never changes any aggregate (the parent's aggregate
// already contained the node), so scores computed at collection time stay
// valid for the whole compression — no heap maintenance and no stale-entry
// revalidation. Because aggregates are monotone up the tree, this sorted
// prefix is exactly the fold set of the incremental least-popular-leaf
// cascade; see CompressTo.
//
// Batch paths (AddBatch, Merge, MergeAll) defer aggregate propagation: own
// weights are applied first and the aggregate annotations are rebuilt with
// a single bottom-up pass when that is cheaper than walking the ancestor
// chain per record, then the budget is enforced once. The decoders always
// do: a loaded slab has parents before children, so its aggregates are one
// reverse sweep.
//
// A budgeted tree overshoots its budget while a batch lands and folds back
// under it; that overshoot never lives in the tree. The wire loader's
// pooled lay-out (load.go: a pointer-free node list and an open-addressing
// key table) takes the tree's nodes and the batch's, the fold runs there,
// and the tree adopts the survivors exact-fit (batch.go). The slab grows in
// place only for unbudgeted trees, for batches too small to cross the
// budget, and for per-record calls.
//
// The sorted entry list the wire codecs encode against (Entries,
// AppendBinary, SizeBytes, DeltaHash) is cached and invalidated on
// mutation, so repeated exports of an unchanged tree — delta bases,
// re-ships, size metering — skip the O(n log n) sort after the first.
package flowtree

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"megadata/internal/flow"
)

// Option configures a Tree.
type Option func(*Tree)

// WithStepBits sets the prefix-shortening step of the canonical
// generalization chain (default 8, i.e. octet boundaries — the natural
// "domain knowledge" levels of IPv4 subnetting).
func WithStepBits(bits uint8) Option {
	return func(t *Tree) { t.stepBits = bits }
}

// WithScore sets the popularity score used for compression and ranking
// (default flow.ScoreBytes). The score must be monotone — nondecreasing in
// each counter — so that a node never outscores its ancestors, which is
// what lets compression fold a sorted prefix in one pass (all built-in
// scores are monotone field selectors). A non-monotone score degrades
// compression to coarser folds but never corrupts the tree.
func WithScore(s flow.Score) Option {
	return func(t *Tree) { t.score = s }
}

// WithCompressTarget sets the fraction of the budget the tree compresses
// down to when the budget is exceeded (default 0.75; folding to exactly the
// budget would compress on every insert).
func WithCompressTarget(f float64) Option {
	return func(t *Tree) { t.compressTarget = f }
}

// noNode is the nil slab index (the root's parent).
const noNode int32 = -1

// freeDepth marks a slab slot as dead: folded out of the tree and (outside
// a compression in progress) parked on the free list.
const freeDepth int32 = -1

// rootIdx is the root's fixed slab offset.
const rootIdx int32 = 0

// node is one generalized flow in the slab. children is nil until the node
// gets its first child: most nodes are leaves. Only a slab grown in place
// gives an interior node an array of its own; bulk-loaded and batch-folded
// slabs window all of them out of one backing array (linkChildren), which
// keeps the ingest path allocation-flat.
type node struct {
	key      flow.Key
	own      flow.Counters // weight attributed directly to this key
	agg      flow.Counters // own + descendants (the paper's popularity score)
	parent   int32         // slab index of the parent; noNode for the root
	depth    int32         // generalization steps below the root; freeDepth = dead slot
	children []int32       // child slab indices in the children's keyLess order
}

func (n *node) isLeaf() bool { return len(n.children) == 0 }

// Tree is a Flowtree instance. It is not safe for concurrent use; the data
// store serializes access.
type Tree struct {
	budget         int
	stepBits       uint8
	compressTarget float64
	score          flow.Score
	slab           []node
	free           []int32 // dead slab slots available for reuse
	live           int     // live node count, root included (Len without the index)
	// nodes is the key→slab-offset index. nil means deferred: Clone skips
	// the index (its dominant cost — read-only snapshot clones never use
	// it) and index() materializes it from the slab on first need. A nil
	// map still answers deletes and misses correctly, so fold paths need
	// no materialization.
	nodes    map[flow.Key]int32
	inserted uint64 // records ever added (diagnostics)

	// Cached wire-entry list (weighted nodes, normalized keys, keyLess
	// order) and its validity bit; every mutation dirties it.
	entries   []Entry
	entriesOK bool

	// Scratch buffers reused across per-record calls (the tree is
	// single-goroutine, so plain fields suffice): the compression fold
	// slice and ensure's missing-ancestor chain. A batch through the pooled
	// lay-out leaves fold nil.
	fold  []foldItem
	chain []flow.Key
}

// New builds a Flowtree with a node budget (0 = unlimited).
func New(budget int, opts ...Option) (*Tree, error) {
	t, err := newTree(budget, 8, opts)
	if err != nil {
		return nil, err
	}
	// A budgeted tree starts as the root alone: its first batch is written
	// back exact-fit (AddBatch), which would make anything pre-sized here
	// garbage — once per shard per epoch and per fleet leaf per round. The
	// key index is deferred either way; the first per-record use
	// materializes it.
	hint := 16
	if budget > 0 {
		hint = 1
	}
	t.slab = make([]node, 1, hint)
	t.slab[rootIdx] = node{key: flow.Root(), parent: noNode}
	t.live = 1
	return t, nil
}

// newTree validates a configuration and returns the tree without a slab:
// New gives it a growable one, the wire decoders an exact-fit one (load).
// stepBits is the default the options may override.
func newTree(budget int, stepBits uint8, opts []Option) (*Tree, error) {
	if budget < 0 {
		return nil, errors.New("flowtree: budget must be >= 0")
	}
	t := &Tree{
		budget:         budget,
		stepBits:       stepBits,
		compressTarget: 0.75,
		score:          flow.ScoreBytes,
	}
	for _, opt := range opts {
		opt(t)
	}
	if t.stepBits == 0 || t.stepBits > 32 {
		return nil, fmt.Errorf("flowtree: step bits %d out of range", t.stepBits)
	}
	if t.compressTarget <= 0 || t.compressTarget > 1 {
		return nil, errors.New("flowtree: compress target must be in (0,1]")
	}
	if budget > 0 && budget < 2 {
		return nil, errors.New("flowtree: budget must be at least 2 nodes")
	}
	return t, nil
}

// index returns the key→slab-offset map, materializing a deferred one with
// a single linear slab sweep.
func (t *Tree) index() map[flow.Key]int32 {
	if t.nodes == nil {
		m := make(map[flow.Key]int32, t.live)
		for i := range t.slab {
			if t.slab[i].depth >= 0 {
				m[t.slab[i].key] = int32(i)
			}
		}
		t.nodes = m
	}
	return t.nodes
}

// dirty invalidates the cached sorted entry list; every own-weight or
// structure mutation goes through it.
func (t *Tree) dirty() { t.entriesOK = false }

// Add ingests one flow record.
func (t *Tree) Add(rec flow.Record) {
	t.inserted++
	t.addCounters(rec.Key, flow.CountersOf(rec))
	t.maybeCompress()
}

// AddBatch ingests a slice of flow records, enforcing the node budget once
// at the end of the batch rather than after every record. Within a batch the
// tree may temporarily exceed its budget; the final state is compressed back
// under it.
//
// Compression runs once per batch instead of on every insert that crosses
// the budget, and aggregates are rebuilt once instead of per record. The
// resulting state is exactly what serial insertion would produce up to
// compression timing, which moves to batch boundaries.
//
// A batch that can cross the budget — even if every record brought a whole
// chain of new nodes — never grows the tree itself: the overshoot is laid
// out, folded and handed back in pooled scratch (addBatchPooled), and the
// tree comes to rest exact-fit. Unbudgeted trees and batches too small to
// overshoot edit the slab in place, because copying a large tree out and
// back per batch would cost O(tree), not O(batch).
func (t *Tree) AddBatch(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	t.dirty()
	t.inserted += uint64(len(recs))
	if t.budget > 0 && t.live+len(recs)*t.chainDepth() > t.budget {
		t.addBatchPooled(recs)
		return
	}
	// Below the budget for any input: nothing to compress afterwards.
	if t.deferAgg(len(recs)) {
		for _, r := range recs {
			ni := t.ensure(r.Key)
			t.slab[ni].own.Add(flow.CountersOf(r))
		}
		t.recomputeAgg(rootIdx)
	} else {
		for _, r := range recs {
			t.addCounters(r.Key, flow.CountersOf(r))
		}
	}
}

// chainDepth bounds the canonical generalization chain length of an exact
// key: three wildcard steps (source port, destination port, protocol) plus
// the alternating prefix-shortening steps of both addresses.
func (t *Tree) chainDepth() int {
	return 3 + 2*(31/int(t.stepBits)+1)
}

// deferAgg decides whether a bulk edit of n records should rebuild
// aggregates with one O(nodes) pass instead of walking the ancestor chain
// per record. The two costs have different constants: an ancestor step is a
// slab load plus three integer adds, while a rebuild step iterates a child
// array — so deferral only wins when the record volume swamps the tree, as
// it does for seal-time shard fan-ins, merges into small trees and large
// batches into unbudgeted ones.
func (t *Tree) deferAgg(n int) bool {
	const rebuildCostFactor = 20
	return n*t.chainDepth() >= rebuildCostFactor*t.live
}

// AddCounters ingests a pre-aggregated weight at an arbitrary (possibly
// generalized) key. Used by Merge and by data-store re-aggregation.
func (t *Tree) AddCounters(key flow.Key, c flow.Counters) {
	t.addCounters(key, c)
	t.maybeCompress()
}

func (t *Tree) addCounters(key flow.Key, c flow.Counters) {
	t.dirty()
	ni := t.ensure(key)
	t.slab[ni].own.Add(c)
	for cur := ni; cur != noNode; cur = t.slab[cur].parent {
		t.slab[cur].agg.Add(c)
	}
}

// alloc carves a slab slot for a new node — reusing a free slot (and its
// child-array capacity) when one exists — and registers it in the index.
func (t *Tree) alloc(key flow.Key, parent, depth int32) int32 {
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
		nd := &t.slab[i]
		nd.key, nd.own, nd.agg = key, flow.Counters{}, flow.Counters{}
		nd.parent, nd.depth = parent, depth
		nd.children = nd.children[:0]
	} else {
		i = int32(len(t.slab))
		t.slab = append(t.slab, node{key: key, parent: parent, depth: depth})
	}
	t.nodes[key] = i
	t.live++
	return i
}

// childPos binary-searches pi's sorted child array for the position of (or
// insertion point for) a child with the given key.
func (t *Tree) childPos(pi int32, key flow.Key) int {
	kids := t.slab[pi].children
	return sort.Search(len(kids), func(j int) bool { return !keyLess(t.slab[kids[j]].key, key) })
}

// addChild inserts ci into pi's child array at its sorted position.
func (t *Tree) addChild(pi, ci int32) {
	pos := t.childPos(pi, t.slab[ci].key)
	p := &t.slab[pi]
	p.children = append(p.children, 0)
	copy(p.children[pos+1:], p.children[pos:])
	p.children[pos] = ci
}

// removeChild deletes ci from pi's sorted child array.
func (t *Tree) removeChild(pi, ci int32) {
	pos := t.childPos(pi, t.slab[ci].key)
	p := &t.slab[pi]
	copy(p.children[pos:], p.children[pos+1:])
	p.children = p.children[:len(p.children)-1]
}

// ensure returns the slab index for key, creating the node and all missing
// canonical ancestors. The ancestors inherit the descendants' aggregate
// lazily: agg updates happen in addCounters.
func (t *Tree) ensure(key flow.Key) int32 {
	if i, ok := t.index()[key]; ok {
		return i
	}
	// Build the missing part of the chain from key upward, in the reusable
	// scratch slice (a fresh chain allocation per miss dominates ingest
	// allocation otherwise).
	missing := append(t.chain[:0], key)
	attach := rootIdx
	cur := key
	for {
		parent, ok := cur.GeneralizeStep(t.stepBits)
		if !ok {
			attach = rootIdx
			break
		}
		if p, exists := t.nodes[parent]; exists {
			attach = p
			break
		}
		missing = append(missing, parent)
		cur = parent
	}
	// Create from most general to most specific. alloc may grow the slab,
	// so only indices are held across iterations.
	for i := len(missing) - 1; i >= 0; i-- {
		depth := t.slab[attach].depth + 1
		ci := t.alloc(missing[i], attach, depth)
		t.addChild(attach, ci)
		// New interior nodes start empty; any existing weight under
		// them is impossible because chains are complete (children of
		// attach are never re-parented).
		attach = ci
	}
	t.chain = missing[:0]
	return attach
}

// Len returns the number of nodes (including the root).
func (t *Tree) Len() int { return t.live }

// Inserted returns the number of records ever added.
func (t *Tree) Inserted() uint64 { return t.inserted }

// Budget returns the node budget (0 = unlimited).
func (t *Tree) Budget() int { return t.budget }

// SetBudget changes the node budget and compresses immediately if the tree
// is over it (the manager uses this to adapt granularity at run time,
// paper property 3).
func (t *Tree) SetBudget(budget int) error {
	if budget < 0 || (budget > 0 && budget < 2) {
		return errors.New("flowtree: budget must be 0 or >= 2")
	}
	t.budget = budget
	t.maybeCompress()
	return nil
}

// Total returns the aggregate counters over the whole tree.
func (t *Tree) Total() flow.Counters { return t.slab[rootIdx].agg }

func (t *Tree) maybeCompress() {
	if t.budget > 0 && t.live > t.budget {
		t.CompressTo(t.restTarget())
	}
}

// restTarget is the node count a budgeted tree compresses down to.
func (t *Tree) restTarget() int { return int(float64(t.budget) * t.compressTarget) }

// foldItem is one compression candidate: a slab index, its popularity score
// and its depth at collection time. Folds never change aggregates, so
// scores collected once stay valid for the whole compression. The item is
// pointer-free, so the fold scratch is invisible to the garbage collector.
type foldItem struct {
	s     uint64
	idx   int32
	depth int32
}

// foldKey resolves a fold candidate's index to its key: a slab offset for
// CompressTo, an offset into the pooled lay-out for a batch fold.
type foldKey func(idx int32) flow.Key

func (t *Tree) slabKey(idx int32) flow.Key { return t.slab[idx].key }

// cmpFold is the fold order: ascending score; equal scores order deeper
// nodes first (so descendants always precede their ancestors — an
// ancestor's aggregate is at least any descendant's) with remaining ties
// broken by the deterministic key order, so compression depends neither on
// collection order nor on where a node sits in its slab or lay-out. Keys
// are unique, so the order is strict.
func cmpFold(a, b foldItem, key foldKey) int {
	switch {
	case a.s != b.s:
		if a.s < b.s {
			return -1
		}
		return 1
	case a.depth != b.depth:
		if a.depth > b.depth {
			return -1
		}
		return 1
	case keyLess(key(a.idx), key(b.idx)):
		return -1
	default:
		return 1
	}
}

func sortFoldItems(items []foldItem, key foldKey) {
	slices.SortFunc(items, func(a, b foldItem) int { return cmpFold(a, b, key) })
}

// prepareFold arranges items so that the k smallest by fold order occupy
// items[:k] in sorted order — the sequential delete fold needs descendants
// folded before their ancestors. Folding a large fraction sorts
// everything; otherwise a quickselect narrows to the prefix first, so the
// small compressions of a budgeted tree pay O(n + k log k) instead of
// O(n log n).
func prepareFold(items []foldItem, k int, key foldKey) {
	if 4*k >= 3*len(items) {
		sortFoldItems(items, key)
		return
	}
	quickselectFold(items, k, key)
	sortFoldItems(items[:k], key)
}

// quickselectFold partitions items so the k smallest elements occupy
// items[:k] in arbitrary order: Hoare partitioning with median-of-three
// pivots, recursing (iteratively) into the side containing k. The fold
// order is strict, so every partition makes progress.
func quickselectFold(items []foldItem, k int, key foldKey) {
	lo, hi := 0, len(items)
	for hi-lo > 16 {
		mid := lo + (hi-lo)/2
		if cmpFold(items[mid], items[lo], key) < 0 {
			items[mid], items[lo] = items[lo], items[mid]
		}
		if cmpFold(items[hi-1], items[lo], key) < 0 {
			items[hi-1], items[lo] = items[lo], items[hi-1]
		}
		if cmpFold(items[hi-1], items[mid], key) < 0 {
			items[hi-1], items[mid] = items[mid], items[hi-1]
		}
		pivot := items[mid]
		i, j := lo-1, hi
		for {
			for {
				i++
				if cmpFold(items[i], pivot, key) >= 0 {
					break
				}
			}
			for {
				j--
				if cmpFold(items[j], pivot, key) <= 0 {
					break
				}
			}
			if i >= j {
				break
			}
			items[i], items[j] = items[j], items[i]
		}
		// items[lo..j] precede-or-equal the pivot, items[j+1..) follow it.
		if k <= j+1 {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	sortFoldItems(items[lo:hi], key)
}

// collectFold sweeps the slab once and gathers every live non-root node as
// a fold candidate — the cache-linear replacement for iterating the key
// index.
func (t *Tree) collectFold() []foldItem {
	items := t.fold[:0]
	for i := 1; i < len(t.slab); i++ {
		n := &t.slab[i]
		if n.depth < 0 {
			continue // free slot
		}
		items = append(items, foldItem{idx: int32(i), s: n.agg.ScoreWith(t.score), depth: n.depth})
	}
	return items
}

// CompressTo folds least-popular leaves into their parents until at most
// target nodes remain (Table II: Compress — "summarize the lower level
// nodes"). The root is never folded. Weight is preserved exactly; only the
// attribution granularity coarsens.
//
// The fold is a bulk sort-and-fold. The incremental formulation — maintain
// a min-heap of leaves, repeatedly fold the least popular one, cascading to
// parents that become new leaves — admits a closed form: a cascaded parent
// always scores at least its folded child (aggregates are monotone up the
// tree), so the heap's pop sequence is nondecreasing in score, and the set
// it folds is exactly the first len-target of all non-root nodes ordered by
// ascending score with descendants before ancestors on ties. That prefix is
// closed under taking descendants — no heap maintenance, no boxing, no
// revalidation churn, and trivially terminating where the cascade-round
// argument needs the leaf front to shrink the tree every round. Two
// execution strategies over one linear slab sweep exploit this: folding a
// minority of the tree quickselects and sorts just the fold prefix
// (O(n + k log k)), deleting each folded node in descendant-first order and
// parking its slot on the free list; folding a majority only partitions
// (O(n)) and rebuilds a compact slab from the survivors, handing the spike
// memory back.
func (t *Tree) CompressTo(target int) {
	if target < 1 {
		target = 1
	}
	k := t.live - target
	if k <= 0 {
		return
	}
	t.dirty()
	items := t.collectFold()
	if 2*k >= t.live {
		t.compressRebuild(items, k, target)
	} else {
		// The sequential fold needs items[:k] in fold order so that
		// descendants fold (and push their weight) before ancestors.
		prepareFold(items, k, t.slabKey)
		for _, it := range items[:k] {
			n := &t.slab[it.idx]
			// Under the monotone-score contract n is always a leaf by the
			// time it is reached; a non-monotone score can violate that —
			// skip the fold instead of orphaning the children, and let
			// the cascade fallback below finish the job.
			if len(n.children) != 0 {
				continue
			}
			t.slab[n.parent].own.Add(n.own)
			t.removeChild(n.parent, it.idx)
			delete(t.nodes, n.key)
			n.depth = freeDepth
			t.free = append(t.free, it.idx)
			t.live--
		}
	}
	// Drop the scratch when a bulk fold left it drastically oversized for
	// the surviving tree — a seal-time shard fan-in, a clone compressed to a
	// coarser budget; a batch folds in pooled scratch and is not among
	// them. (Items are pointer-free, so a kept backing array pins no nodes.)
	if cap(items) > 4*t.live {
		items = nil
	}
	t.fold = items[:0]
	if t.live > target {
		// Only reachable under a contract-violating (non-monotone) score,
		// when the sequential fold had to skip prefix members with
		// surviving children. Fall back to the incremental cascade, which
		// reaches the target for any score.
		t.compressCascade(target)
	}
}

// compressRebuild is the majority fold: partition out the k least popular
// nodes (no order needed — the marker-based weight push and the survivor
// rebuild below are order-independent), then rebuild a compact slab, child
// arrays and key index from the target survivors — O(n) selection plus
// O(target) rebuild instead of an O(n log n) sort and O(k) deletes. The
// free list resets: every dead slot's memory is handed back with the old
// slab.
func (t *Tree) compressRebuild(items []foldItem, k, target int) {
	quickselectFold(items, k, t.slabKey)
	// Mark the folded prefix (the nodes are discarded, their depth is free
	// as a marker), then push every folded node's own weight directly to
	// its nearest surviving ancestor. With a monotone score that ancestor
	// is simply the parent chain's first survivor, and the direct push
	// sums to exactly what transitive child-to-parent accumulation would;
	// under a contract-violating score it keeps the weight out of
	// discarded nodes.
	for _, it := range items[:k] {
		t.slab[it.idx].depth = freeDepth
	}
	for _, it := range items[:k] {
		p := t.slab[it.idx].parent
		for t.slab[p].depth < 0 {
			p = t.slab[p].parent
		}
		t.slab[p].own.Add(t.slab[it.idx].own)
	}
	survivors := items[k:]
	old := t.slab
	next := make([]node, 0, len(survivors)+1)
	next = append(next, old[rootIdx])
	next[rootIdx].children = nil
	// remap translates surviving old slab offsets to compact ones; folded
	// slots are never read from it.
	remap := make([]int32, len(old))
	remap[rootIdx] = rootIdx
	for _, it := range survivors {
		remap[it.idx] = int32(len(next))
		next = append(next, old[it.idx])
	}
	// Re-link parents against the old slab's chains: a monotone score
	// folds every descendant of a folded node, so the parent always
	// survives; under a non-monotone score it may not — reattach to the
	// nearest surviving ancestor (the root always survives) rather than
	// detach the subtree.
	for j := 1; j < len(next); j++ {
		p := next[j].parent
		for old[p].depth < 0 {
			p = old[p].parent
		}
		next[j].parent = remap[p]
	}
	linkChildren(next)
	// Refill the index. Clearing retains its storage; only a drastically
	// oversized index is dropped for a right-sized one, so one-shot bulk
	// folds (seal fan-in) hand the memory back while per-record ingest
	// reuses it. A deferred index stays deferred — the compact slab is
	// exactly what index() would sweep.
	switch {
	case t.nodes == nil:
	case 4*target >= t.live:
		clear(t.nodes)
		for j := range next {
			t.nodes[next[j].key] = int32(j)
		}
	default:
		t.nodes = make(map[flow.Key]int32, target)
		for j := range next {
			t.nodes[next[j].key] = int32(j)
		}
	}
	t.slab = next
	t.live = len(next)
	t.free = t.free[:0]
}

// linkChildren rebuilds every child array of a compact slab (no dead slots,
// parent links valid) out of one shared backing array, sorted per parent —
// two allocations however many interior nodes there are.
func linkChildren(slab []node) {
	counts := make([]int32, len(slab))
	for j := 1; j < len(slab); j++ {
		counts[slab[j].parent]++
	}
	backing := make([]int32, len(slab)-1)
	off := int32(0)
	for j := range slab {
		n := counts[j]
		if n == 0 {
			slab[j].children = nil
			continue
		}
		slab[j].children = backing[off : off : off+n]
		off += n
	}
	for j := 1; j < len(slab); j++ {
		p := slab[j].parent
		slab[p].children = append(slab[p].children, int32(j))
	}
	for j := range slab {
		kids := slab[j].children
		if len(kids) > 1 {
			slices.SortFunc(kids, func(a, b int32) int {
				if keyLess(slab[a].key, slab[b].key) {
					return -1
				}
				return 1
			})
		}
	}
}

// compressCascade is the order-robust fallback fold: round by round, the
// current leaves are sorted ascending by score and folded, with parents
// that lose their last child joining the next round. Every round folds at
// least one leaf (a tree above target always has a non-root leaf), so the
// target is always reached regardless of the score function. The sorted
// prefix fold in CompressTo is the fast path; this runs only when a
// non-monotone score defeats its closure argument.
func (t *Tree) compressCascade(target int) {
	round := t.fold[:0]
	for i := 1; i < len(t.slab); i++ {
		n := &t.slab[i]
		if n.depth >= 0 && n.isLeaf() {
			round = append(round, foldItem{idx: int32(i), s: n.agg.ScoreWith(t.score), depth: n.depth})
		}
	}
	var next []foldItem
	for t.live > target && len(round) > 0 {
		sortFoldItems(round, t.slabKey)
		next = next[:0]
		for _, it := range round {
			if t.live <= target {
				break
			}
			n := &t.slab[it.idx]
			p := n.parent
			t.slab[p].own.Add(n.own)
			t.removeChild(p, it.idx)
			delete(t.nodes, n.key)
			n.depth = freeDepth
			t.free = append(t.free, it.idx)
			t.live--
			if p != rootIdx && t.slab[p].isLeaf() {
				next = append(next, foldItem{idx: p, s: t.slab[p].agg.ScoreWith(t.score), depth: t.slab[p].depth})
			}
		}
		round, next = next, round
	}
	t.fold = round[:0]
}

// Compress folds down to the configured budget target (no-op when
// unlimited).
func (t *Tree) Compress() {
	if t.budget > 0 {
		t.CompressTo(t.restTarget())
	}
}

// Merge joins another Flowtree into t (Table II: Merge — across time or
// location). Every node's own weight is added at its key; the node budget
// then re-compresses as needed, which is exactly the paper's
// "A12 = compress(A1 ∪ A2)" construction.
func (t *Tree) Merge(other *Tree) error {
	return t.MergeAll(other)
}

// MergeAll joins several Flowtrees into t with a single budget compression
// at the end, instead of one per merge. Sealing a sharded epoch fans N
// shard memtables together this way; compressing once over the union is
// both cheaper and no coarser than compressing after every constituent.
//
// The sources are streamed slab-linearly (tree order is irrelevant to a
// weight union), and aggregate propagation is deferred when profitable: the
// sources' own weights land first and t's aggregates are rebuilt with one
// bottom-up pass, instead of re-walking the ancestor chain per source node.
func (t *Tree) MergeAll(others ...*Tree) error {
	// Validate every tree before folding any weight in, so a mismatch
	// cannot leave t half-merged.
	total := 0
	for _, other := range others {
		if other == nil {
			continue
		}
		if other.stepBits != t.stepBits {
			return errors.New("flowtree: merging trees with different generalization steps")
		}
		total += other.live
	}
	if total == 0 {
		return nil
	}
	t.dirty()
	deferred := t.deferAgg(total)
	for _, other := range others {
		if other == nil {
			continue
		}
		// Key and weight are copied out before any insertion: ensure may
		// grow t's slab, and other may alias t (self-merge doubles every
		// weight, deterministically).
		limit := len(other.slab)
		for i := 0; i < limit; i++ {
			if other.slab[i].depth < 0 || other.slab[i].own.IsZero() {
				continue
			}
			key, own := other.slab[i].key, other.slab[i].own
			if deferred {
				ni := t.ensure(key)
				t.slab[ni].own.Add(own)
			} else {
				t.addCounters(key, own)
			}
		}
	}
	if deferred {
		t.recomputeAgg(rootIdx)
	}
	t.maybeCompress()
	return nil
}

// Diff subtracts the popularity of flows appearing in other from t
// (Table II: Diff). Subtraction is exact where both trees hold the same
// key and saturates at zero; weight held at keys absent from t is ignored
// (t has no information about flows it never saw).
func (t *Tree) Diff(other *Tree) error {
	if other == nil {
		return nil
	}
	if other.stepBits != t.stepBits {
		return errors.New("flowtree: diffing trees with different generalization steps")
	}
	t.dirty()
	for i := range other.slab {
		on := &other.slab[i]
		if on.depth < 0 || on.own.IsZero() {
			continue
		}
		if ni, ok := t.index()[on.key]; ok {
			t.slab[ni].own.Sub(on.own)
		}
	}
	t.recomputeAgg(rootIdx)
	return nil
}

// recomputeAgg rebuilds aggregate counters bottom-up after bulk own-weight
// edits. Recursion depth is bounded by the canonical chain length.
func (t *Tree) recomputeAgg(i int32) flow.Counters {
	n := &t.slab[i]
	agg := n.own
	for _, c := range n.children {
		agg.Add(t.recomputeAgg(c))
	}
	n.agg = agg
	return agg
}

// walk visits live nodes pre-order (parents before children); fn returning
// false prunes the subtree. fn must not mutate the tree (slab growth would
// invalidate the visited pointer).
func (t *Tree) walk(fn func(*node) bool) {
	var rec func(i int32)
	rec = func(i int32) {
		n := &t.slab[i]
		if !fn(n) {
			return
		}
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(rootIdx)
}

// Entry is one reported flow with its popularity.
type Entry struct {
	Key flow.Key
	// Counters is the popularity annotation (own + descendants unless
	// stated otherwise by the reporting operator).
	Counters flow.Counters
}

// Query returns the popularity score of a single flow (Table II: Query):
// the total weight of all stored flows that key generalizes. After
// compression the result is a lower bound — weight folded into ancestors
// coarser than key can no longer be attributed below it.
func (t *Tree) Query(key flow.Key) flow.Counters {
	var total flow.Counters
	var rec func(i int32)
	rec = func(i int32) {
		n := &t.slab[i]
		if key.Generalizes(n.key) {
			total.Add(n.agg)
			return
		}
		if !overlaps(key, n.key) {
			return
		}
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(rootIdx)
	return total
}

// overlaps reports whether some fully specific flow is contained in both
// keys.
func overlaps(a, b flow.Key) bool {
	minPfx := a.SrcPrefix
	if b.SrcPrefix < minPfx {
		minPfx = b.SrcPrefix
	}
	if a.SrcIP.Mask(minPfx) != b.SrcIP.Mask(minPfx) {
		return false
	}
	minPfx = a.DstPrefix
	if b.DstPrefix < minPfx {
		minPfx = b.DstPrefix
	}
	if a.DstIP.Mask(minPfx) != b.DstIP.Mask(minPfx) {
		return false
	}
	if !a.WildProto && !b.WildProto && a.Proto != b.Proto {
		return false
	}
	if !a.WildSrcPort && !b.WildSrcPort && a.SrcPort != b.SrcPort {
		return false
	}
	if !a.WildDstPort && !b.WildDstPort && a.DstPort != b.DstPort {
		return false
	}
	return true
}

// Drilldown returns the children of the node at key with their popularity
// scores (Table II: Drilldown), sorted by descending score. ok is false
// when key has no node (e.g. compressed away).
func (t *Tree) Drilldown(key flow.Key) ([]Entry, bool) {
	ni, exists := t.index()[key]
	if !exists {
		return nil, false
	}
	kids := t.slab[ni].children
	out := make([]Entry, 0, len(kids))
	for _, c := range kids {
		out = append(out, Entry{Key: t.slab[c].key, Counters: t.slab[c].agg})
	}
	t.sortEntries(out)
	return out, true
}

// TopK returns the k flows with the highest directly attributed popularity
// (Table II: Top-k). Ranking uses own weight (including weight folded in by
// compression) rather than subtree aggregates, which would always rank the
// root first.
func (t *Tree) TopK(k int) []Entry {
	if k <= 0 {
		return nil
	}
	out := make([]Entry, 0, t.live)
	for i := range t.slab {
		n := &t.slab[i]
		if n.depth >= 0 && !n.own.IsZero() {
			out = append(out, Entry{Key: n.key, Counters: n.own})
		}
	}
	t.sortEntries(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// AboveX returns all flows whose popularity score (own + descendants) is
// at least x under the tree's score function (Table II: Above-x).
func (t *Tree) AboveX(x uint64) []Entry {
	var out []Entry
	t.walk(func(n *node) bool {
		if n.agg.ScoreWith(t.score) >= x {
			out = append(out, Entry{Key: n.key, Counters: n.agg})
			return true
		}
		// Children can never exceed a parent's aggregate; prune.
		return false
	})
	t.sortEntries(out)
	return out
}

// HHHEntry is one hierarchical heavy hitter.
type HHHEntry struct {
	Key flow.Key
	// Counters is the full subtree weight.
	Counters flow.Counters
	// Discounted is the subtree score minus descendant HHHs, the value
	// compared against the threshold.
	Discounted uint64
}

// HHH returns all flows across the tree with a substantial popularity score
// (Table II: HHH): nodes whose subtree score, discounted by descendant
// heavy hitters, reaches phi * total.
func (t *Tree) HHH(phi float64) []HHHEntry {
	threshold := uint64(phi * float64(t.slab[rootIdx].agg.ScoreWith(t.score)))
	if threshold == 0 {
		threshold = 1
	}
	var out []HHHEntry
	var rec func(i int32) uint64
	rec = func(i int32) uint64 {
		n := &t.slab[i]
		var claimed uint64
		for _, c := range n.children {
			claimed += rec(c)
		}
		score := n.agg.ScoreWith(t.score)
		discounted := score - claimed
		if discounted >= threshold {
			out = append(out, HHHEntry{Key: n.key, Counters: n.agg, Discounted: discounted})
			return score
		}
		return claimed
	}
	rec(rootIdx)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Discounted != out[j].Discounted {
			return out[i].Discounted > out[j].Discounted
		}
		return keyLess(out[i].Key, out[j].Key)
	})
	return out
}

// keyLess is an arbitrary-but-deterministic total order over keys used for
// stable tie-breaking (cheaper than comparing String renderings).
func keyLess(a, b flow.Key) bool {
	switch {
	case a.SrcIP != b.SrcIP:
		return a.SrcIP < b.SrcIP
	case a.DstIP != b.DstIP:
		return a.DstIP < b.DstIP
	case a.SrcPort != b.SrcPort:
		return a.SrcPort < b.SrcPort
	case a.DstPort != b.DstPort:
		return a.DstPort < b.DstPort
	case a.Proto != b.Proto:
		return a.Proto < b.Proto
	case a.SrcPrefix != b.SrcPrefix:
		return a.SrcPrefix < b.SrcPrefix
	case a.DstPrefix != b.DstPrefix:
		return a.DstPrefix < b.DstPrefix
	case a.WildProto != b.WildProto:
		return !a.WildProto
	case a.WildSrcPort != b.WildSrcPort:
		return !a.WildSrcPort
	default:
		return !a.WildDstPort && b.WildDstPort
	}
}

// cmpEntryKeys orders entries by keyLess (the wire order).
func cmpEntryKeys(a, b Entry) int {
	switch {
	case keyLess(a.Key, b.Key):
		return -1
	case keyLess(b.Key, a.Key):
		return 1
	default:
		return 0
	}
}

func (t *Tree) sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		si, sj := entries[i].Counters.ScoreWith(t.score), entries[j].Counters.ScoreWith(t.score)
		if si != sj {
			return si > sj
		}
		return keyLess(entries[i].Key, entries[j].Key)
	})
}

// rebuildEntries refreshes the cached wire-entry list: one linear slab
// sweep collecting every live node with non-zero own weight (keys
// normalized — a per-field mask that almost always no-ops, since tree keys
// come from normalized record keys), then one keyLess sort.
func (t *Tree) rebuildEntries() {
	out := t.entries[:0]
	for i := range t.slab {
		n := &t.slab[i]
		if n.depth < 0 || n.own.IsZero() {
			continue
		}
		out = append(out, Entry{Key: n.key.Normalized(), Counters: n.own})
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	t.entries = out
	t.entriesOK = true
}

// wireEntries returns the cached sorted entry list the wire codecs encode
// against, rebuilding it only if the tree mutated since the last call.
// Callers must treat the slice as read-only and must not hold it across a
// mutation.
func (t *Tree) wireEntries() []Entry {
	if !t.entriesOK {
		t.rebuildEntries()
	}
	return t.entries
}

// Entries returns every node with non-zero own weight (the tree's exact
// content at current granularity) with normalized keys in the
// deterministic keyLess order — the order the v2 wire codec
// prefix-delta-encodes against. The sorted list is cached between
// mutations, so repeated calls on an unchanged tree cost one copy, not one
// sort.
func (t *Tree) Entries() []Entry {
	return slices.Clone(t.wireEntries())
}

// Clone returns a deep copy of the tree: the slab is copied wholesale
// (one memcpy — nodes are index-linked, so the copy needs no pointer
// fixup) and the child-index arrays are re-sliced out of a single shared
// backing array; the key index is deferred and rebuilt from the slab only
// if the clone is ever mutated or point-queried. The copy shares no
// mutable state with t, including scratch buffers and the entry cache. A
// handful of allocations regardless of tree size: clones are taken on hot
// paths (shard snapshots per live query, FlowDB memo-cache hits), where
// one allocation per node dominated the copy cost — and most of those
// clones are read-only, so they never pay for the index at all.
func (t *Tree) Clone() *Tree {
	cp := &Tree{
		budget:         t.budget,
		stepBits:       t.stepBits,
		compressTarget: t.compressTarget,
		score:          t.score,
		live:           t.live,
		inserted:       t.inserted,
	}
	cp.slab = make([]node, len(t.slab))
	copy(cp.slab, t.slab)
	total := 0
	for i := range t.slab {
		if t.slab[i].depth >= 0 {
			total += len(t.slab[i].children)
		}
	}
	backing := make([]int32, 0, total)
	for i := range cp.slab {
		n := &cp.slab[i]
		if n.depth < 0 || len(n.children) == 0 {
			// Dead slots drop their (aliased) child capacity; alloc
			// restores an empty array on reuse.
			n.children = nil
			continue
		}
		start := len(backing)
		backing = append(backing, n.children...)
		n.children = backing[start:len(backing):len(backing)]
	}
	if len(t.free) > 0 {
		cp.free = slices.Clone(t.free)
	}
	if t.entriesOK {
		cp.entries = slices.Clone(t.entries)
		cp.entriesOK = true
	}
	return cp
}

// StepBits returns the generalization step.
func (t *Tree) StepBits() uint8 { return t.stepBits }
