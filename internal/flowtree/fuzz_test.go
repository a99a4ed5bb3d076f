package flowtree

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"megadata/internal/flow"
	"megadata/internal/workload"
)

// nonCanonicalLists are entry lists a conforming encoder never emits, one
// per rule of the canonical stream (weighted entries, normalized keys,
// strictly ascending): the decoders must refuse each as ErrCodec, in a v2
// body and in either list of a v3 frame. The first two encode as v2 to the
// frames `01 00 00 00 00` and `02 00 01 01 01 00 01 01 01` behind the header.
func nonCanonicalLists() []struct {
	name    string
	entries []Entry
} {
	w := flow.Counters{Packets: 1, Bytes: 1, Flows: 1}
	a := flow.Exact(flow.ProtoTCP, 0x0a000001, 0xc0a80001, 1000, 80)
	b := a
	b.DstIP++ // sorts after a
	loose := a
	loose.SrcPrefix = 8 // address bits left below the mask
	return []struct {
		name    string
		entries []Entry
	}{
		{"zero_weight", []Entry{{}}},
		{"duplicate_key", []Entry{{Counters: w}, {Counters: w}}},
		{"unsorted", []Entry{{Key: b, Counters: w}, {Key: a, Counters: w}}},
		{"unnormalized", []Entry{{Key: loose, Counters: w}}},
	}
}

// nonCanonicalV2 encodes each list as a full v2 frame.
func nonCanonicalV2() []corpusSeed {
	var seeds []corpusSeed
	for _, l := range nonCanonicalLists() {
		seeds = append(seeds, corpusSeed{"seed_v2_" + l.name, refEncodeV2(l.entries, 8)})
	}
	return seeds
}

// nonCanonicalV3 encodes each list as the changed list, and its keys as the
// removed list (where a weight-free list can carry the defect), of a v3
// frame whose fingerprint matches base.
func nonCanonicalV3(base *Tree) []corpusSeed {
	var seeds []corpusSeed
	for _, l := range nonCanonicalLists() {
		seeds = append(seeds, corpusSeed{"seed_delta_changed_" + l.name,
			base.appendDelta(nil, base, treeDelta{changed: l.entries})})
		if l.name == "zero_weight" {
			continue
		}
		var keys []flow.Key
		for _, e := range l.entries {
			keys = append(keys, e.Key)
		}
		seeds = append(seeds, corpusSeed{"seed_delta_removed_" + l.name,
			base.appendDelta(nil, base, treeDelta{removed: keys})})
	}
	return seeds
}

// fuzzTreeSeeds builds the in-code seed corpus of FuzzDecodeTree: both wire
// versions of a real tree, an empty tree, structurally broken variants, and
// frames from trees that went through the slab's bulk machinery — a
// compressed tree (gapped generalization chains from rebuild reattachment)
// and a compressed-then-regrown tree (free-list slot reuse) — so budgeted
// re-decodes start from material that exercises those paths — plus the
// non-canonical frames the decoder must refuse. The checked-in
// files under testdata/fuzz/FuzzDecodeTree mirror these
// (TestWriteTreeFuzzCorpus regenerates them).
func fuzzTreeSeeds(tb testing.TB) []corpusSeed {
	tb.Helper()
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 5, Skew: 1.3})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(0)
	if err != nil {
		tb.Fatal(err)
	}
	tr.AddBatch(g.Records(60))
	empty, err := New(0)
	if err != nil {
		tb.Fatal(err)
	}
	step4, err := New(0, WithStepBits(4))
	if err != nil {
		tb.Fatal(err)
	}
	step4.AddBatch(g.Records(40))
	v1, err := tr.AppendBinaryV(nil, WireV1)
	if err != nil {
		tb.Fatal(err)
	}
	v2 := tr.AppendBinary(nil)
	// Majority-fold compression rebuilds the slab and reattaches survivors
	// across chain gaps; regrowing afterwards recycles free-list slots. The
	// encodings of both states feed the fuzz engine slab-shaped frames.
	compressed := tr.Clone()
	compressed.CompressTo(compressed.Len() / 4)
	regrown := compressed.Clone()
	regrown.AddBatch(g.Records(80))
	badVersion := append([]byte{}, v2[:wireHeaderSize]...)
	badVersion[4] = 99
	return append(nonCanonicalV2(),
		corpusSeed{"seed_v1", v1},
		corpusSeed{"seed_v2", v2},
		corpusSeed{"seed_v2_step4", step4.AppendBinary(nil)},
		corpusSeed{"seed_empty", empty.AppendBinary(nil)},
		corpusSeed{"seed_v2_truncated", v2[:len(v2)/2]},
		corpusSeed{"seed_header_only", v2[:wireHeaderSize]},
		corpusSeed{"seed_bad_magic", append([]byte{}, 0, 0, 0, 0, 0, 0)},
		corpusSeed{"seed_bad_version", badVersion},
		corpusSeed{"seed_v2_compressed", compressed.AppendBinary(nil)},
		corpusSeed{"seed_v1_compressed_regrown", mustV1(tb, regrown)},
		corpusSeed{"seed_v2_compressed_regrown", regrown.AppendBinary(nil)},
	)
}

func mustV1(tb testing.TB, tr *Tree) []byte {
	tb.Helper()
	b, err := tr.AppendBinaryV(nil, WireV1)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzDecodeTree hammers the Flowtree wire decoders (v1 and v2): Decode
// must never panic on arbitrary bytes, and a successful decode must be
// canonical — re-encoding and re-decoding preserves the tree's total weight
// and node count. Exports cross the WAN (Figure 5 step 3), so this decoder
// faces whatever a damaged link or a hostile peer delivers.
func FuzzDecodeTree(f *testing.F) {
	for _, s := range fuzzTreeSeeds(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound per-exec work: a grown input of tens of kilobytes decodes
		// into hundreds of thousands of chain nodes — legitimate work for
		// the decoder, but it turns the fuzz loop into a memory benchmark.
		// Real epochs that large are covered by the codec tests.
		if len(data) > 8<<10 {
			return
		}
		tr, err := Decode(data, 0)
		if err != nil {
			return
		}
		wire := tr.AppendBinary(nil)
		again, err := Decode(wire, 0)
		if err != nil {
			t.Fatalf("re-decode of fresh encoding failed: %v", err)
		}
		if again.Total() != tr.Total() {
			t.Fatalf("round trip changed total: %+v vs %+v", again.Total(), tr.Total())
		}
		if again.Len() != tr.Len() {
			t.Fatalf("round trip changed node count: %d vs %d", again.Len(), tr.Len())
		}
		// A budgeted decode of the same bytes must not panic either and
		// never exceeds its budget by more than the compress slack.
		if small, err := Decode(data, 64); err == nil {
			if small.Total() != tr.Total() {
				t.Fatalf("budgeted decode changed total: %+v vs %+v", small.Total(), tr.Total())
			}
		}
	})
}

// deltaFuzzBase is the deterministic retained base every FuzzDecodeTreeDelta
// execution applies candidate v3 frames onto. Seeds are encoded against this
// exact tree so the fuzz engine starts past the fingerprint check.
func deltaFuzzBase(tb testing.TB) *Tree {
	tb.Helper()
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 7, Skew: 1.3})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(0)
	if err != nil {
		tb.Fatal(err)
	}
	tr.AddBatch(g.Records(50))
	return tr
}

// corpusSeed is one named seed of the checked-in delta fuzz corpus.
type corpusSeed struct {
	name string
	data []byte
}

// deltaFuzzSeeds builds the in-code seed corpus of FuzzDecodeTreeDelta: a
// real delta against the fuzz base (mutations plus compression folds, so
// both the changed and removed lists are populated), an empty delta, a
// delta with a corrupted base fingerprint, structurally broken variants,
// non-canonical changed and removed lists, and full v2 frames (one of them
// non-canonical) for the pass-through path. The checked-in files under
// testdata/fuzz/FuzzDecodeTreeDelta mirror these (TestWriteDeltaFuzzCorpus
// regenerates them).
func deltaFuzzSeeds(tb testing.TB) []corpusSeed {
	tb.Helper()
	base := deltaFuzzBase(tb)
	cur := base.Clone()
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 8, Skew: 1.3})
	if err != nil {
		tb.Fatal(err)
	}
	cur.AddBatch(g.Records(20))
	cur.AddCounters(cur.Entries()[0].Key, flow.Counters{Packets: 3, Bytes: 300, Flows: 1})
	cur.CompressTo(cur.Len() * 3 / 4) // folds ⇒ removed keys in the delta
	delta, err := cur.AppendDelta(nil, base)
	if err != nil {
		tb.Fatal(err)
	}
	empty, err := base.AppendDelta(nil, base.Clone())
	if err != nil {
		tb.Fatal(err)
	}
	badHash := append([]byte{}, delta...)
	badHash[wireHeaderSize] ^= 0xff
	return append(append(nonCanonicalV3(base), nonCanonicalV2()[0]),
		corpusSeed{"seed_delta", delta},
		corpusSeed{"seed_delta_empty", empty},
		corpusSeed{"seed_delta_badhash", badHash},
		corpusSeed{"seed_delta_truncated", delta[:len(delta)/2]},
		corpusSeed{"seed_delta_header_only", delta[:wireHeaderSize]},
		corpusSeed{"seed_v2_passthrough", cur.AppendBinary(nil)},
	)
}

// FuzzDecodeTreeDelta hammers the v3 delta decoder: DecodeDelta must never
// panic on arbitrary bytes — with or without a retained base — and a
// successful apply must yield a canonical tree whose re-encoding round
// trips. Delta frames cross the same WAN as full frames, so the decoder
// faces the same damaged links and hostile peers.
func FuzzDecodeTreeDelta(f *testing.F) {
	for _, s := range deltaFuzzSeeds(f) {
		f.Add(s.data)
	}
	base := deltaFuzzBase(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Same per-exec work bound as FuzzDecodeTree.
		if len(data) > 8<<10 {
			return
		}
		tr, err := DecodeDelta(data, base, 0)
		if err != nil {
			// The no-base path must not panic either.
			if _, err := DecodeDelta(data, nil, 0); err == nil {
				t.Fatal("frame decodes with nil base but not with one")
			}
			return
		}
		wire := tr.AppendBinary(nil)
		again, err := Decode(wire, 0)
		if err != nil {
			t.Fatalf("re-decode of applied delta failed: %v", err)
		}
		if again.Total() != tr.Total() {
			t.Fatalf("round trip changed total: %+v vs %+v", again.Total(), tr.Total())
		}
		if again.Len() != tr.Len() {
			t.Fatalf("round trip changed node count: %d vs %d", again.Len(), tr.Len())
		}
		// A budgeted apply of the same bytes must not panic and preserves
		// total weight.
		if small, err := DecodeDelta(data, base, 64); err == nil {
			if small.Total() != tr.Total() {
				t.Fatalf("budgeted apply changed total: %+v vs %+v", small.Total(), tr.Total())
			}
		}
	})
}

// writeFuzzCorpus rewrites one fuzz target's checked-in seed files from its
// in-code seeds.
func writeFuzzCorpus(t *testing.T, target string, seeds []corpusSeed) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteDeltaFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzDecodeTreeDelta from the in-code seeds. Gated behind an
// env var: run FLOWTREE_WRITE_CORPUS=1 go test ./internal/flowtree -run
// TestWriteDeltaFuzzCorpus after changing the v3 format or the seeds.
func TestWriteDeltaFuzzCorpus(t *testing.T) {
	if os.Getenv("FLOWTREE_WRITE_CORPUS") == "" {
		t.Skip("set FLOWTREE_WRITE_CORPUS=1 to rewrite the seed corpus")
	}
	writeFuzzCorpus(t, "FuzzDecodeTreeDelta", deltaFuzzSeeds(t))
}

// TestWriteTreeFuzzCorpus is TestWriteDeltaFuzzCorpus for FuzzDecodeTree,
// behind the same env var.
func TestWriteTreeFuzzCorpus(t *testing.T) {
	if os.Getenv("FLOWTREE_WRITE_CORPUS") == "" {
		t.Skip("set FLOWTREE_WRITE_CORPUS=1 to rewrite the seed corpus")
	}
	writeFuzzCorpus(t, "FuzzDecodeTree", fuzzTreeSeeds(t))
}
