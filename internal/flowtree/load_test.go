package flowtree

import (
	"bytes"
	"sync"
	"testing"

	"megadata/internal/flow"
)

// TestDecodedTreeSharedReaders is the guard for the deferred key index: a
// decoded tree is shared — the hop's delta base is also the FlowDB row that
// queries merge from — and so is a tree at rest after AddBatch, which a
// one-shard store seals as the epoch itself while query fan-ins already read
// it as a merge source. Every operation those readers use must leave the
// tree untouched. Eight goroutines run each of them on one tree; under -race
// a stray index() or entry-cache rebuild on the shared tree is a reported
// write. The encoders, Entries and DeltaHash read the entry cache, so they
// run on the subject whose cache is primed — the decoded one.
func TestDecodedTreeSharedReaders(t *testing.T) {
	sender := buildSkewedTree(t, 5000, 1.2)
	decoded, err := Decode(sender.AppendBinary(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := New(4096)
	if err != nil {
		t.Fatal(err)
	}
	batched.AddBatch(diffRecords(t, 42, 5000))
	for _, subject := range []struct {
		name   string
		shared *Tree
		primed bool
	}{
		{"decoded", decoded, true},
		{"at rest after AddBatch", batched, false},
	} {
		shared := subject.shared
		if shared.nodes != nil || shared.entriesOK != subject.primed {
			t.Fatalf("%s: index deferred %t, entry cache primed %t", subject.name, shared.nodes == nil, shared.entriesOK)
		}
		// Clone only reads its source; the copy supplies the expectations.
		want := shared.Clone()
		hash, total, wire := want.DeltaHash(), want.Total(), want.AppendBinary(nil)
		probe := want.Entries()[0].Key
		ops := []func(){
			func() {
				dst, err := New(0)
				if err == nil {
					err = dst.MergeAll(shared)
				}
				if err != nil || dst.Total() != total {
					t.Errorf("%s: MergeAll from shared tree: total %+v, err %v", subject.name, dst.Total(), err)
				}
			},
			func() {
				if got := shared.Query(flow.Root()); got != total {
					t.Errorf("%s: Query(root) %+v, want %+v", subject.name, got, total)
				}
				_ = shared.Query(probe)
			},
			func() {
				if got := shared.TopK(10); len(got) != 10 {
					t.Errorf("%s: TopK(10) returned %d entries", subject.name, len(got))
				}
			},
			func() {
				if got := shared.Clone().Len(); got != want.Len() {
					t.Errorf("%s: Clone has %d nodes, want %d", subject.name, got, want.Len())
				}
			},
		}
		if subject.primed {
			ops = append(ops,
				func() {
					if got := shared.Entries(); len(got) != len(want.wireEntries()) {
						t.Errorf("%s: Entries: %d, want %d", subject.name, len(got), len(want.wireEntries()))
					}
				},
				func() {
					if got := shared.DeltaHash(); got != hash {
						t.Errorf("%s: DeltaHash %#x, want %#x", subject.name, got, hash)
					}
				},
				func() {
					if !bytes.Equal(shared.AppendBinary(nil), wire) {
						t.Errorf("%s: AppendBinary differs from the frame the tree was decoded from", subject.name)
					}
				})
		}
		// One op at a time, eight goroutines at once: a write anywhere in an
		// op then races with the same op next door while the detector still
		// holds both stacks (it drops a report whose older access has aged
		// out of the goroutine's trace, as one buried under five other ops
		// would).
		for _, op := range ops {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					op()
				}()
			}
			wg.Wait()
		}
		if shared.nodes != nil {
			t.Errorf("%s: a read-only operation materialized the shared tree's key index", subject.name)
		}
	}
}

// TestDecodeAllocations gates the receive path's allocation count: the tree,
// its entry list, the exact-fit slab and the two arrays behind the child
// lists (plus the two parsed lists of a v3 frame) — a constant, where one
// child array per interior node plus slab and index growth made it
// thousands. The transient lookup and node list are pooled.
func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	sender := decodeBenchTree(t)
	if sender.Len() != 3072 {
		t.Fatalf("bench tree has %d nodes, want 3072", sender.Len())
	}
	wire := sender.AppendBinary(nil)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := Decode(wire, 0); err != nil {
			t.Fatal(err)
		}
	}); got > 8 {
		t.Errorf("Decode of a 3072-node v2 frame: %.0f allocs, want <= 8", got)
	}
	base, frame := lowChurnDelta(t, sender)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := DecodeDelta(frame, base, 0); err != nil {
			t.Fatal(err)
		}
	}); got > 8 {
		t.Errorf("DecodeDelta of a low-churn v3 frame: %.0f allocs, want <= 8", got)
	}
}

// TestAddBatchAllocations gates the ingest path's steady state: a
// 4096-record batch into a budget-4096 tree at rest allocates the two
// arrays behind the child lists and nothing per record or per node — the
// overshoot is laid out in pooled scratch and the survivors go back into
// the slab storage the tree already has.
func TestAddBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	const batch, runs = 4096, 20
	recs := diffRecords(t, 42, (runs+3)*batch)
	tr, err := New(batch)
	if err != nil {
		t.Fatal(err)
	}
	// Two batches bring the tree to its resting size and the pool to its.
	for ; len(recs) > (runs+1)*batch; recs = recs[batch:] {
		tr.AddBatch(recs[:batch])
	}
	if got := testing.AllocsPerRun(runs, func() {
		tr.AddBatch(recs[:batch])
		recs = recs[batch:]
	}); got > 8 {
		t.Errorf("AddBatch of %d records into a budget-%d tree: %.0f allocs, want <= 8", batch, batch, got)
	}
}

// allocTestTree is the >= 100k-node tree the Clone and CompressTo allocation
// gates measure (122k nodes).
func allocTestTree(t *testing.T) *Tree {
	t.Helper()
	if raceEnabled {
		t.Skip("single-goroutine allocation count; the race build only makes the setup several times slower")
	}
	full := buildSkewedTree(t, 40000, 1.2)
	if full.Len() < 100000 {
		t.Fatalf("tree has %d nodes, want >= 100000", full.Len())
	}
	return full
}

// TestCloneAllocations pins the structural copy at three allocations — the
// tree, the node slab and the child-index backing — whatever the node
// count; every shard seal, memo fill and export takes this path.
func TestCloneAllocations(t *testing.T) {
	full := allocTestTree(t)
	if got := testing.AllocsPerRun(3, func() { _ = full.Clone() }); got != 3 {
		t.Errorf("Clone of a %d-node tree: %.0f allocs, want 3", full.Len(), got)
	}
}

// TestCompressAllocations holds the bulk fold to a few dozen allocations:
// folding the tree down to a 4096-node budget allocates scratch arrays
// (grown by doubling, so 34 allocations here, 37 at 269k nodes, 41 at 585k)
// and the compact rebuild, never per node or per fold.
func TestCompressAllocations(t *testing.T) {
	full := allocTestTree(t)
	// AllocsPerRun calls the function once to warm up and once to measure,
	// and CompressTo consumes its tree: one clone per call.
	clones := []*Tree{full.Clone(), full.Clone()}
	if got := testing.AllocsPerRun(1, func() {
		clones[0].CompressTo(4096)
		clones = clones[1:]
	}); got > 41 {
		t.Errorf("CompressTo(4096) of a %d-node tree: %.0f allocs, want <= 41", full.Len(), got)
	}
}
