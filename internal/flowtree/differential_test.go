package flowtree

// Differential property suite for the arena rewrite: every randomized op
// sequence is driven through the slab-backed Tree and the pointer-based
// refTree (reftree_test.go) side by side, and after every op the two must
// agree EXACTLY — node sets, own and aggregate counters, entry lists, and
// all three wire encodings byte for byte. Exactness (not just invariants)
// is possible because both implementations share the deterministic fold
// order, so compression folds identical node sets.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"megadata/internal/flow"
	"megadata/internal/workload"
)

// diffPair is one arena/reference tree pair under differential test.
type diffPair struct {
	a *Tree
	r *refTree
}

func newDiffPair(t *testing.T, budget int, opts ...Option) *diffPair {
	t.Helper()
	a, err := New(budget, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &diffPair{a: a, r: newRefTree(budget, a.stepBits, a.score)}
}

// assertEqual pins the arena tree to the reference exactly.
func (p *diffPair) assertEqual(t *testing.T, ctx string) {
	t.Helper()
	if p.a.Len() != p.r.len() {
		t.Fatalf("%s: node count %d (index has %d), reference %d", ctx, p.a.Len(), len(p.a.index()), p.r.len())
	}
	if p.a.Total() != p.r.total() {
		t.Fatalf("%s: total %+v, reference %+v", ctx, p.a.Total(), p.r.total())
	}
	// Node-for-node: every reference node exists in the arena at the same
	// depth with the same own and aggregate counters (with equal counts,
	// this also rules out arena-only nodes).
	idx := p.a.index()
	for key, rn := range p.r.nodes {
		ai, ok := idx[key]
		if !ok {
			t.Fatalf("%s: reference node %v missing from arena", ctx, key)
		}
		an := &p.a.slab[ai]
		if an.own != rn.own || an.agg != rn.agg {
			t.Fatalf("%s: node %v counters diverge: arena %+v/%+v, reference %+v/%+v",
				ctx, key, an.own, an.agg, rn.own, rn.agg)
		}
		if an.depth != rn.depth {
			t.Fatalf("%s: node %v depth %d, reference %d", ctx, key, an.depth, rn.depth)
		}
	}
	// Entry lists and every wire encoding, byte for byte. The reference
	// encoders rebuild frames from the plain entry list through the shared
	// low-level appenders, so agreement pins the arena's slab-order encode
	// paths (including the cached sorted entries) against first principles.
	re := p.r.entries()
	ae := p.a.Entries()
	if len(ae) != len(re) {
		t.Fatalf("%s: %d entries, reference %d", ctx, len(ae), len(re))
	}
	for i := range ae {
		if ae[i] != re[i] {
			t.Fatalf("%s: entry %d is %+v, reference %+v", ctx, i, ae[i], re[i])
		}
	}
	v1, err := p.a.AppendBinaryV(nil, WireV1)
	if err != nil {
		t.Fatalf("%s: v1 encode: %v", ctx, err)
	}
	if !bytes.Equal(v1, refEncodeV1(re, p.a.stepBits)) {
		t.Fatalf("%s: v1 bytes diverge from reference", ctx)
	}
	v2 := p.a.AppendBinary(nil)
	if !bytes.Equal(v2, refEncodeV2(re, p.a.stepBits)) {
		t.Fatalf("%s: v2 bytes diverge from reference", ctx)
	}
	if got, want := p.a.SizeBytes(), uint64(len(v2)); got != want {
		t.Fatalf("%s: SizeBytes %d, encoded length %d", ctx, got, want)
	}
	if got, want := p.a.DeltaHash(), refDeltaHash(re, p.a.stepBits); got != want {
		t.Fatalf("%s: DeltaHash %#x, reference %#x", ctx, got, want)
	}
}

// assertLoaded pins what the bulk loader leaves behind, given the sender's
// v2 bytes: an exact-fit slab with no free slots, the key index deferred,
// the entry cache primed, and a re-encoding equal to what was sent.
func assertLoaded(t *testing.T, ctx string, dec *Tree, senderV2 []byte) {
	t.Helper()
	if cap(dec.slab) != len(dec.slab) || len(dec.slab) != dec.Len() || len(dec.free) != 0 {
		t.Fatalf("%s: slab len %d cap %d for %d nodes (%d free): not exact-fit",
			ctx, len(dec.slab), cap(dec.slab), dec.Len(), len(dec.free))
	}
	if dec.nodes != nil {
		t.Fatalf("%s: decode materialized the key index", ctx)
	}
	if !dec.entriesOK {
		t.Fatalf("%s: decode left the entry cache cold", ctx)
	}
	if !bytes.Equal(dec.AppendBinary(nil), senderV2) {
		t.Fatalf("%s: decoded tree re-encodes differently from the sender", ctx)
	}
}

// Where a batch's fold happens, by what it does to the tree: not at all
// through the pooled lay-out (unbudgeted, or too small to cross the budget
// whatever its records are), through it without a fold, with the majority
// fold in the lay-out, or with the minority fold CompressTo runs on the
// adopted tree.
const (
	batchInPlace = iota
	batchFits
	batchMajority
	batchMinority
	batchClasses
)

// batchClass predicts which of them AddBatch(recs) is for the pair, from
// the reference tree alone.
func (p *diffPair) batchClass(recs []flow.Record) int {
	budget, live := p.a.Budget(), p.r.len()
	if budget == 0 || live+len(recs)*p.r.chainDepth() <= budget {
		return batchInPlace
	}
	grown := p.r.clone()
	grown.budget = 0
	grown.addBatch(recs)
	peak := grown.len()
	target := max(int(float64(budget)*p.r.compressTarget), 1)
	switch {
	case peak <= budget:
		return batchFits
	case 2*(peak-target) >= peak:
		return batchMajority
	default:
		return batchMinority
	}
}

// straddlingBatch draws a batch size around one of the decisions AddBatch
// takes on tr: whether the batch can cross the budget at all
// (live + n*chainDepth against budget), which fold it gets (twice the fold
// against the peak, at two to five new nodes a record), or far past both.
func straddlingBatch(rng *rand.Rand, tr *Tree) int {
	budget, live := tr.Budget(), tr.Len()
	if budget == 0 {
		return 1 + rng.Intn(300)
	}
	switch rng.Intn(3) {
	case 0:
		return max(1, (budget-live)/tr.chainDepth()+rng.Intn(5)-2)
	case 1:
		return max(1, (2*tr.restTarget()-live)/(2+rng.Intn(4))+rng.Intn(9)-4)
	default:
		return budget + rng.Intn(budget)
	}
}

// assertAtRest pins what a batch through the pooled lay-out leaves behind:
// an exact-fit slab, the key index deferred, no fold scratch, and — unless
// CompressTo's sequential fold ran on it (minority) — no free slots.
func assertAtRest(t *testing.T, ctx string, tr *Tree, minority bool) {
	t.Helper()
	if cap(tr.slab) != len(tr.slab) {
		t.Fatalf("%s: slab len %d cap %d: not exact-fit", ctx, len(tr.slab), cap(tr.slab))
	}
	if !minority && (len(tr.free) != 0 || len(tr.slab) != tr.Len()) {
		t.Fatalf("%s: %d slots for %d nodes, %d free", ctx, len(tr.slab), tr.Len(), len(tr.free))
	}
	if tr.nodes != nil {
		t.Fatalf("%s: batch materialized the key index", ctx)
	}
	if tr.fold != nil {
		t.Fatalf("%s: tree kept %d fold candidates of scratch", ctx, cap(tr.fold))
	}
}

// genRecords returns deterministic skewed records for a sequence step.
func diffRecords(t *testing.T, seed int64, n int) []flow.Record {
	t.Helper()
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: seed, Skew: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	return g.Records(n)
}

// generalize walks a key up its canonical chain a few steps.
func generalize(key flow.Key, steps int, stepBits uint8) flow.Key {
	for i := 0; i < steps; i++ {
		up, ok := key.GeneralizeStep(stepBits)
		if !ok {
			break
		}
		key = up
	}
	return key
}

// TestDifferentialOpSequences drives randomized op sequences through both
// implementations: Add, AddBatch, AddCounters at generalized keys, Merge,
// MergeAll, Diff, CompressTo, Clone, SetBudget, full encode/decode
// replacement, v3 delta frames against snapshotted bases, and batches sized
// to straddle the decisions AddBatch takes on a budgeted tree. Every decode
// is followed by one mutation from a rotating list, so each mutator meets a
// freshly bulk-loaded slab (exact-fit, index deferred, cache primed) and
// not only one that ingest grew. Several seeds × budgets, exact equality
// after every op.
func TestDifferentialOpSequences(t *testing.T) {
	configs := []struct {
		name   string
		budget int
		opts   []Option
	}{
		{"unbudgeted", 0, nil},
		{"budget=256", 256, nil},
		{"budget=64/step=16", 64, []Option{WithStepBits(16)}},
		{"budget=128/nonmonotone", 128, []Option{WithScore(func(_, b, f uint64) uint64 {
			if f == 0 {
				return 0
			}
			return b / f
		})}},
	}
	ops := 120
	if testing.Short() {
		ops = 40
	}
	var batchesSeen [batchClasses]int
	for _, cfg := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				p := newDiffPair(t, cfg.budget, cfg.opts...)
				// Delta base snapshot: arena tree plus reference entries,
				// refreshed occasionally by the delta op.
				var baseA *Tree
				var baseRE []Entry
				// after is the op forced right after a decode: Add, AddBatch,
				// Merge, CompressTo, SetBudget, Diff, Clone, straddling batch
				// in turn.
				mutators := []int{0, 1, 3, 5, 7, 4, 6, 10}
				after, decodes := -1, 0
				for op := 0; op < ops; op++ {
					kind := rng.Intn(11)
					if after >= 0 {
						kind, after = after, -1
					}
					ctx := fmt.Sprintf("op %d (kind %d)", op, kind)
					switch kind {
					case 0: // single record
						rec := diffRecords(t, rng.Int63n(1000), 1)[0]
						p.a.Add(rec)
						p.r.add(rec)
					case 1: // batch (exercises the deferred-aggregation path)
						recs := diffRecords(t, rng.Int63n(1000), 1+rng.Intn(300))
						p.a.AddBatch(recs)
						p.r.addBatch(recs)
					case 2: // weight at a generalized key
						recs := diffRecords(t, rng.Int63n(1000), 1)
						key := generalize(recs[0].Key, rng.Intn(6), p.a.stepBits)
						c := flow.Counters{Packets: uint64(rng.Intn(50)), Bytes: uint64(rng.Intn(5000)), Flows: 1}
						p.a.AddCounters(key, c)
						p.r.addWeighted(key, c)
					case 3: // merge one or several freshly built trees
						n := 1 + rng.Intn(3)
						arenas := make([]*Tree, n)
						refs := make([]*refTree, n)
						for i := range arenas {
							recs := diffRecords(t, rng.Int63n(1000), 1+rng.Intn(80))
							oa, err := New(0, WithStepBits(p.a.stepBits))
							if err != nil {
								t.Fatal(err)
							}
							oa.AddBatch(recs)
							or := newRefTree(0, p.a.stepBits, p.a.score)
							or.addBatch(recs)
							arenas[i] = oa
							refs[i] = or
						}
						if n == 1 && rng.Intn(2) == 0 {
							if err := p.a.Merge(arenas[0]); err != nil {
								t.Fatal(err)
							}
						} else if err := p.a.MergeAll(arenas...); err != nil {
							t.Fatal(err)
						}
						p.r.mergeAll(refs...)
					case 4: // subtract a small tree
						recs := diffRecords(t, rng.Int63n(1000), 1+rng.Intn(40))
						oa, err := New(0, WithStepBits(p.a.stepBits))
						if err != nil {
							t.Fatal(err)
						}
						oa.AddBatch(recs)
						or := newRefTree(0, p.a.stepBits, p.a.score)
						or.addBatch(recs)
						if err := p.a.Diff(oa); err != nil {
							t.Fatal(err)
						}
						p.r.diff(or)
					case 5: // explicit compression (both fold strategies over time)
						if p.a.Len() > 2 {
							target := 1 + rng.Intn(p.a.Len())
							p.a.CompressTo(target)
							p.r.compressTo(target)
						}
					case 6: // clone: continue on the copy, original must survive intact
						ca, cr := p.a.Clone(), p.r.clone()
						old := *p
						p.a, p.r = ca, cr
						old.assertEqual(t, ctx+" (clone source)")
					case 7: // budget change compresses immediately
						if cfg.budget > 0 {
							b := 32 + rng.Intn(cfg.budget)
							if err := p.a.SetBudget(b); err != nil {
								t.Fatal(err)
							}
							p.r.budget = b
							p.r.maybeCompress()
						}
					case 8: // wire round trip replaces the pair (post-Decode state)
						version := byte(WireV1)
						if rng.Intn(2) == 0 {
							version = WireV2
						}
						wire, err := p.a.AppendBinaryV(nil, version)
						if err != nil {
							t.Fatal(err)
						}
						budget := 0
						if rng.Intn(2) == 0 {
							budget = 64 + rng.Intn(256)
						}
						dec, err := Decode(wire, budget, WithScore(p.a.score))
						if err != nil {
							t.Fatalf("%s: decode: %v", ctx, err)
						}
						re := p.r.entries()
						if budget == 0 || refFromEntries(re, 0, p.a.stepBits, p.a.score).len() <= budget {
							assertLoaded(t, ctx, dec, p.a.AppendBinary(nil))
						} else if dec.nodes != nil {
							t.Fatalf("%s: budgeted decode materialized the key index", ctx)
						}
						p.a = dec
						p.r = refFromEntries(re, budget, p.a.stepBits, p.a.score)
						after = mutators[decodes%len(mutators)]
						decodes++
					case 9: // v3 delta against the snapshotted base
						if baseA == nil {
							baseA = p.a.Clone()
							baseRE = p.r.entries()
							continue
						}
						delta, err := p.a.AppendDelta(nil, baseA)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(delta, refAppendDelta(p.r.entries(), baseRE, p.a.stepBits)) {
							t.Fatalf("%s: v3 delta bytes diverge from reference", ctx)
						}
						dec, err := DecodeDelta(delta, baseA, 0, WithScore(p.a.score))
						if err != nil {
							t.Fatalf("%s: delta apply: %v", ctx, err)
						}
						assertLoaded(t, ctx, dec, p.a.AppendBinary(nil))
						applied := &diffPair{a: dec, r: refFromEntries(p.r.entries(), 0, p.a.stepBits, p.a.score)}
						applied.assertEqual(t, ctx+" (delta applied)")
						// The applied tree is the receiver's next base, as on a
						// real hop; half the time the sequence also continues
						// on it (unbudgeted, like every receiver-side decode).
						baseA = dec
						baseRE = p.r.entries()
						if rng.Intn(2) == 0 {
							p = applied
							baseA = dec.Clone()
						}
						after = mutators[decodes%len(mutators)]
						decodes++
					case 10: // batch straddling the pooled path's decisions
						// A third land on a tree exactly as Clone, Decode or
						// DecodeDelta leave it — assertEqual materialized the
						// index of the one the sequence carries.
						budget := p.a.Budget()
						switch src := rng.Intn(6); {
						case src == 0:
							p.a = p.a.Clone()
						case src == 1 || src == 2 && baseA == nil:
							dec, err := Decode(p.a.AppendBinary(nil), budget, WithScore(p.a.score))
							if err != nil {
								t.Fatalf("%s: decode: %v", ctx, err)
							}
							p.a, p.r = dec, refFromEntries(p.r.entries(), budget, dec.stepBits, dec.score)
						case src == 2:
							delta, err := p.a.AppendDelta(nil, baseA)
							if err != nil {
								t.Fatal(err)
							}
							dec, err := DecodeDelta(delta, baseA, budget, WithScore(p.a.score))
							if err != nil {
								t.Fatalf("%s: delta apply: %v", ctx, err)
							}
							p.a, p.r = dec, refFromEntries(p.r.entries(), budget, dec.stepBits, dec.score)
						}
						if budget > 0 && rng.Intn(4) == 0 { // budget moved since the last batch
							b := 32 + rng.Intn(2*budget)
							if err := p.a.SetBudget(b); err != nil {
								t.Fatal(err)
							}
							p.r.budget = b
							p.r.maybeCompress()
						}
						recs := diffRecords(t, rng.Int63n(1000), straddlingBatch(rng, p.a))
						class := p.batchClass(recs)
						batchesSeen[class]++
						p.a.AddBatch(recs)
						p.r.addBatch(recs)
						if class != batchInPlace {
							assertAtRest(t, ctx, p.a, class == batchMinority)
						}
					}
					p.assertEqual(t, ctx)
				}
			})
		}
	}
	for class, n := range batchesSeen {
		if n == 0 && !testing.Short() {
			t.Errorf("no batch of class %d (in place, fits, majority, minority) was drawn", class)
		}
	}
}

// TestDifferentialSelfMerge pins the self-merge edge case: merging a tree
// into itself doubles every weight deterministically on both
// implementations (the arena streams the source slab by value, so growth
// during insertion must not corrupt the iteration).
func TestDifferentialSelfMerge(t *testing.T) {
	p := newDiffPair(t, 0)
	p.a.AddBatch(diffRecords(t, 11, 500))
	p.r.addBatch(diffRecords(t, 11, 500))
	if err := p.a.MergeAll(p.a); err != nil {
		t.Fatal(err)
	}
	// The reference walks its own pointer graph; snapshot first so the
	// walk sees the pre-merge state like the arena's by-value iteration.
	p.r.mergeAll(p.r.clone())
	p.assertEqual(t, "self-merge")
}

// TestDifferentialCompressToRebuildAndSequential forces both CompressTo
// execution strategies (majority rebuild, minority sequential) explicitly
// on a large tree and demands exact equality, including the
// free-list-reusing ingest that follows.
func TestDifferentialCompressToRebuildAndSequential(t *testing.T) {
	for _, frac := range []float64{0.9, 0.6, 0.3, 0.05} {
		p := newDiffPair(t, 0)
		recs := diffRecords(t, 23, 20000)
		p.a.AddBatch(recs)
		p.r.addBatch(recs)
		target := int(float64(p.a.Len()) * frac)
		p.a.CompressTo(target)
		p.r.compressTo(target)
		p.assertEqual(t, fmt.Sprintf("compress frac=%.2f", frac))
		// Ingest after the fold: the arena reuses freed slots (sequential
		// path) or the compacted slab (rebuild path); the reference just
		// allocates. They must still agree exactly.
		more := diffRecords(t, 29, 3000)
		p.a.AddBatch(more)
		p.r.addBatch(more)
		p.assertEqual(t, fmt.Sprintf("post-compress ingest frac=%.2f", frac))
	}
}

// TestEntriesCacheInvalidation pins the cached sorted-entry list against
// every mutation class: the cache must serve repeated exports unchanged and
// must never survive a mutation stale.
func TestEntriesCacheInvalidation(t *testing.T) {
	tr, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	tr.AddBatch(diffRecords(t, 31, 2000))

	fresh := func(ctx string) {
		t.Helper()
		// Rebuild the truth from the slab, bypassing the cache.
		valid := tr.entriesOK
		tr.entriesOK = false
		want := append([]Entry(nil), tr.wireEntries()...)
		tr.entriesOK = valid
		got := tr.Entries()
		if len(got) != len(want) {
			t.Fatalf("%s: cache serves %d entries, slab has %d", ctx, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: cached entry %d is %+v, slab says %+v", ctx, i, got[i], want[i])
			}
		}
	}

	// Repeated exports of an unchanged tree serve the same backing array.
	_ = tr.Entries()
	if !tr.entriesOK {
		t.Fatal("cache not populated by Entries")
	}
	first := &tr.wireEntries()[0]
	if second := &tr.wireEntries()[0]; first != second {
		t.Fatal("unchanged tree rebuilt its entry cache")
	}
	// Entries() must hand out copies, not the cache itself.
	pub := tr.Entries()
	if &pub[0] == first {
		t.Fatal("Entries returned the internal cache")
	}

	mutations := []struct {
		name string
		do   func()
	}{
		{"Add", func() { tr.Add(diffRecords(t, 37, 1)[0]) }},
		{"AddBatch", func() { tr.AddBatch(diffRecords(t, 41, 50)) }},
		{"AddCounters", func() {
			tr.AddCounters(generalize(diffRecords(t, 43, 1)[0].Key, 3, tr.stepBits), flow.Counters{Bytes: 10, Flows: 1})
		}},
		{"Merge", func() {
			o, _ := New(0)
			o.AddBatch(diffRecords(t, 47, 30))
			if err := tr.Merge(o); err != nil {
				t.Fatal(err)
			}
		}},
		{"Diff", func() {
			o, _ := New(0)
			o.AddBatch(diffRecords(t, 41, 20))
			if err := tr.Diff(o); err != nil {
				t.Fatal(err)
			}
		}},
		{"CompressTo", func() { tr.CompressTo(tr.Len() * 3 / 4) }},
		{"SetBudget", func() {
			if err := tr.SetBudget(tr.Len() / 2); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, m := range mutations {
		_ = tr.Entries() // warm the cache
		m.do()
		fresh(m.name)
	}

	// Clone carries a valid cache without sharing it.
	_ = tr.Entries()
	cp := tr.Clone()
	if !cp.entriesOK {
		t.Fatal("clone dropped a valid entry cache")
	}
	if len(cp.entries) > 0 && len(tr.entries) > 0 && &cp.entries[0] == &tr.entries[0] {
		t.Fatal("clone shares the entry cache backing array")
	}
	cp.Add(diffRecords(t, 53, 1)[0])
	if cp.entriesOK {
		t.Fatal("mutating the clone left its cache valid")
	}
	if !tr.entriesOK {
		t.Fatal("mutating the clone dirtied the original's cache")
	}
}
