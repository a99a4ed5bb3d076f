package flowtree

import (
	"bytes"
	"sync"
	"testing"

	"megadata/internal/flow"
)

// TestDecodedTreeSharedReaders is the guard for the deferred key index: a
// decoded tree is shared — the hop's delta base is also the FlowDB row that
// queries merge from — so every operation those readers use must leave it
// untouched. Eight goroutines run each of them on one tree; under -race a
// stray index() or entry-cache rebuild on the shared tree is a reported
// write.
func TestDecodedTreeSharedReaders(t *testing.T) {
	sender := buildSkewedTree(t, 5000, 1.2)
	wire := sender.AppendBinary(nil)
	shared, err := Decode(wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	hash, total := sender.DeltaHash(), sender.Total()
	probe := sender.Entries()[0].Key
	ops := []func(){
		func() {
			dst, err := New(0)
			if err == nil {
				err = dst.MergeAll(shared)
			}
			if err != nil || dst.Total() != total {
				t.Errorf("MergeAll from shared tree: total %+v, err %v", dst.Total(), err)
			}
		},
		func() {
			if got := shared.Entries(); len(got) != len(sender.wireEntries()) {
				t.Errorf("Entries: %d, want %d", len(got), len(sender.wireEntries()))
			}
		},
		func() {
			if got := shared.DeltaHash(); got != hash {
				t.Errorf("DeltaHash %#x, want %#x", got, hash)
			}
		},
		func() {
			if !bytes.Equal(shared.AppendBinary(nil), wire) {
				t.Error("AppendBinary differs from the frame the tree was decoded from")
			}
		},
		func() {
			if got := shared.Query(flow.Root()); got != total {
				t.Errorf("Query(root) %+v, want %+v", got, total)
			}
			_ = shared.Query(probe)
		},
		func() {
			if got := shared.TopK(10); len(got) != 10 {
				t.Errorf("TopK(10) returned %d entries", len(got))
			}
		},
	}
	// One op at a time, eight goroutines at once: a write anywhere in an op
	// then races with the same op next door while the detector still holds
	// both stacks (it drops a report whose older access has aged out of the
	// goroutine's trace, as one buried under five other ops would).
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
		t.Error("a read-only operation materialized the shared tree's key index")
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
