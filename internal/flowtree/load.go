package flowtree

import (
	"math/rand/v2"
	"sync"

	"megadata/internal/flow"
)

// loadScratch is a tree laid out in pooled, pointer-free form: the node list
// in creation order, parents before children, the key→offset lookup that
// finds ancestors while nodes are laid out, and place's missing-chain
// buffer. Wire decodes build their tree in it (load) and budgeted batches
// take theirs out into it to overshoot and fold (addBatchPooled). None of
// it outlives the call — the tree gets an exact-fit copy of the node list
// and no index (adopt) — so it is pooled.
type loadScratch struct {
	at    keyTable
	nodes []loadNode
	chain []flow.Key
	// The batch fold's working lists, one element per node laid out:
	// aggregates, fold candidates and old→new offsets.
	agg   []flow.Counters
	fold  []foldItem
	remap []int32
}

// loadNode is a node as it is laid out: pointer-free, so growing and filling
// the list costs no write barriers and the collector never scans it. New
// nodes get no child array; adopt links all of them at once.
type loadNode struct {
	key    flow.Key
	own    flow.Counters
	parent int32
	depth  int32
}

var loadPool = sync.Pool{New: func() any { return new(loadScratch) }}

// keyTable is the transient lookup: an open-addressing table of offsets
// into the node list being laid out, which holds the keys. Against a
// map[flow.Key]int32 it skips the runtime's field-by-field hash of the
// padded Key struct and clears in 4 bytes a slot (decode is a sixth
// faster for it).
type keyTable struct {
	slots []int32 // node offset + 1; 0 = empty
}

// hashSeed keeps a peer from choosing keys that all probe the same slots,
// as the runtime's per-map seed does.
var hashSeed = rand.Uint64()

// hashKey mixes every field of a key into 32 well-spread bits.
func hashKey(k flow.Key) uint32 {
	h := (uint64(k.SrcIP)<<32 | uint64(k.DstIP)) ^ hashSeed
	h = (h ^ h>>29) * 0x9e3779b97f4a7c15
	h ^= uint64(k.SrcPort)<<48 | uint64(k.DstPort)<<32 | uint64(k.Proto)<<24 |
		uint64(k.SrcPrefix)<<16 | uint64(k.DstPrefix)<<8 | uint64(wildByte(k))
	h = (h ^ h>>32) * 0x9e3779b97f4a7c15
	return uint32(h >> 32)
}

// reset empties the table and sizes it for about n nodes.
func (kt *keyTable) reset(n int) {
	size := 64
	for size < 2*n {
		size *= 2
	}
	// A table a one-off huge frame left far oversized is dropped: clearing
	// costs its capacity on every later decode.
	if size > len(kt.slots) || 8*size < len(kt.slots) {
		kt.slots = make([]int32, size)
		return
	}
	clear(kt.slots)
}

// get returns key's offset in nodes.
func (kt *keyTable) get(nodes []loadNode, key flow.Key) (int32, bool) {
	mask := uint32(len(kt.slots) - 1)
	for slot := hashKey(key) & mask; ; slot = (slot + 1) & mask {
		switch v := kt.slots[slot]; {
		case v == 0:
			return 0, false
		case nodes[v-1].key == key:
			return v - 1, true
		}
	}
}

// put seats nodes[off], whose key the table does not hold yet, keeping the
// table at most half full.
func (kt *keyTable) put(nodes []loadNode, off int32) {
	if 2*len(nodes) > len(kt.slots) {
		kt.slots = make([]int32, 2*len(kt.slots))
		for i := range nodes[:off] {
			kt.seat(nodes, int32(i))
		}
	}
	kt.seat(nodes, off)
}

func (kt *keyTable) seat(nodes []loadNode, off int32) {
	mask := uint32(len(kt.slots) - 1)
	slot := hashKey(nodes[off].key) & mask
	for kt.slots[slot] != 0 {
		slot = (slot + 1) & mask
	}
	kt.slots[slot] = off + 1
}

// begin empties the scratch for a lay-out of about n nodes. The lists are
// held to the bound reset holds the table to: what a one-off huge batch or
// frame left more than 8x oversized is dropped rather than pooled.
func (sc *loadScratch) begin(n int) {
	sc.at.reset(n)
	if cap(sc.nodes) > 8*max(n, 64) {
		sc.nodes, sc.agg, sc.fold, sc.remap = nil, nil, nil, nil
	}
	sc.nodes = sc.nodes[:0]
}

// place returns key's offset in the lay-out, first creating the node and
// whatever part of its canonical chain is missing, most general first — the
// slab's ensure, over the pooled list.
func (sc *loadScratch) place(key flow.Key, stepBits uint8) int32 {
	nodes := sc.nodes
	if ni, ok := sc.at.get(nodes, key); ok {
		return ni
	}
	chain := append(sc.chain[:0], key)
	attach := rootIdx
	for cur := key; ; {
		parent, more := cur.GeneralizeStep(stepBits)
		if !more {
			break
		}
		if p, exists := sc.at.get(nodes, parent); exists {
			attach = p
			break
		}
		chain = append(chain, parent)
		cur = parent
	}
	for i := len(chain) - 1; i >= 0; i-- {
		ni := int32(len(nodes))
		nodes = append(nodes, loadNode{key: chain[i], parent: attach, depth: nodes[attach].depth + 1})
		sc.at.put(nodes, ni)
		attach = ni
	}
	sc.nodes, sc.chain = nodes, chain[:0]
	return attach
}

// adopt makes a laid-out node list (parents before children) the tree: the
// slab is exactly len == cap == nodes — the tree's own storage when that is
// the size it already has, as in a budgeted tree's steady state — all child
// arrays come out of one shared backing array, aggregates are one reverse
// sweep, and the key index is deferred. No free slots, no fold scratch, no
// slack.
func (t *Tree) adopt(nodes []loadNode) {
	slab := t.slab
	if cap(slab) != len(nodes) {
		slab = make([]node, len(nodes))
	}
	slab = slab[:len(nodes)]
	for i := range nodes {
		ln, n := &nodes[i], &slab[i]
		n.key, n.own, n.agg, n.parent, n.depth = ln.key, ln.own, ln.own, ln.parent, ln.depth
	}
	for i := len(slab) - 1; i > 0; i-- {
		slab[slab[i].parent].agg.Add(slab[i].agg)
	}
	linkChildren(slab)
	t.slab, t.live, t.nodes, t.free, t.fold = slab, len(slab), nil, nil, nil
}

// load fills a fresh tree (newTree, no slab yet) from its canonical entry
// list: strictly ascending in keyLess, keys normalized, weights non-zero —
// what wireEntries yields and what every decoder validates before calling.
// It is the one way wire data becomes a tree.
//
// Nodes are laid out in the order one ensure per entry would create them
// (each entry's missing ancestors, most general first, then the entry), so
// a parent always precedes its children, and adopted exact-fit with the key
// index deferred (decoded trees are read as delta bases, merge sources and
// FlowDB rows; the first mutation or point lookup materializes it).
// entries — already in wire order — becomes the entry cache, so the
// receiver's next DeltaHash or re-encode does not re-sweep and re-sort it.
// The tree takes ownership of entries.
func (t *Tree) load(entries []Entry) {
	sc := loadPool.Get().(*loadScratch)
	// Trees hold two to five nodes per entry; put grows the table if this
	// one has more.
	sc.begin(4 * len(entries))
	sc.nodes = append(sc.nodes, loadNode{key: flow.Root(), parent: noNode})
	sc.at.put(sc.nodes, rootIdx)
	for _, e := range entries {
		ni := sc.place(e.Key, t.stepBits)
		sc.nodes[ni].own = e.Counters
	}
	t.adopt(sc.nodes)
	t.entries, t.entriesOK = entries, true
	loadPool.Put(sc)
}
