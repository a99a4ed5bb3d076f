package flowtree

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"megadata/internal/flow"
	"megadata/internal/workload"
)

// deltaTestTree builds an unbudgeted tree over n generated records.
func deltaTestTree(t testing.TB, seed int64, n int) *Tree {
	t.Helper()
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: seed, Skew: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	tr.AddBatch(g.Records(n))
	return tr
}

// TestDeltaRoundTripRandomMutations drives a sender tree through randomized
// epoch-to-epoch mutation sequences — adds of fresh flows, weight bumps on
// existing entries, compression folds that evict cold subtrees — and checks
// the delta contract at every epoch: applying the v3 frame onto the
// receiver's retained copy of the previous epoch reconstructs a tree whose
// full v2 encoding is byte-for-byte the sender's.
func TestDeltaRoundTripRandomMutations(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		g, err := workload.NewFlowGen(workload.FlowConfig{Seed: seed + 100, Skew: 1.3})
		if err != nil {
			t.Fatal(err)
		}
		cur, err := New(0)
		if err != nil {
			t.Fatal(err)
		}
		cur.AddBatch(g.Records(300))
		// The receiver starts from a full-frame decode of epoch 0.
		recon, err := Decode(cur.AppendBinary(nil), 0)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 12; epoch++ {
			prev := cur.Clone()
			// Adds: a batch of fresh flows from the generator stream.
			cur.AddBatch(g.Records(10 + rng.Intn(40)))
			// Weight bumps on random existing entries.
			entries := cur.Entries()
			for i := 0; i < 1+rng.Intn(8); i++ {
				e := entries[rng.Intn(len(entries))]
				cur.AddCounters(e.Key, flow.Counters{
					Packets: uint64(1 + rng.Intn(100)),
					Bytes:   uint64(1 + rng.Intn(10000)),
					Flows:   1,
				})
			}
			// Folds/evictions: occasionally compress away a slice of the
			// tree, coarsening cold flows into their ancestors.
			if rng.Intn(3) == 0 {
				cur.CompressTo(cur.Len() - cur.Len()/4)
			}

			frame, err := cur.AppendDelta(nil, prev)
			if err != nil {
				t.Fatalf("seed %d epoch %d: AppendDelta: %v", seed, epoch, err)
			}
			recon, err = DecodeDelta(frame, recon, 0)
			if err != nil {
				t.Fatalf("seed %d epoch %d: DecodeDelta: %v", seed, epoch, err)
			}
			want := cur.AppendBinary(nil)
			got := recon.AppendBinary(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d epoch %d: delta reconstruction encodes %d bytes != sender's %d-byte v2 frame",
					seed, epoch, len(got), len(want))
			}
			if recon.Total() != cur.Total() {
				t.Fatalf("seed %d epoch %d: totals diverged: %+v vs %+v", seed, epoch, recon.Total(), cur.Total())
			}
		}
	}
}

// TestDeltaSmallerThanFullOnLowChurn pins the point of v3: a low-churn
// epoch's delta frame is much smaller than the full v2 frame.
func TestDeltaSmallerThanFullOnLowChurn(t *testing.T) {
	cur := deltaTestTree(t, 9, 2000)
	prev := cur.Clone()
	// Touch a handful of entries only.
	entries := cur.Entries()
	for i := 0; i < 5; i++ {
		cur.AddCounters(entries[i*7].Key, flow.Counters{Packets: 1, Bytes: 99, Flows: 1})
	}
	frame, err := cur.AppendDelta(nil, prev)
	if err != nil {
		t.Fatal(err)
	}
	full := cur.AppendBinary(nil)
	if len(frame)*2 > len(full) {
		t.Fatalf("low-churn delta is %d bytes, full frame %d — delta should be under half", len(frame), len(full))
	}
}

// TestDeltaFallbackBoundary pins AppendDeltaOrFull's churn threshold: churn
// at or under maxChurn emits a delta, churn above it (or a missing base)
// emits a full v2 frame that plain Decode accepts.
func TestDeltaFallbackBoundary(t *testing.T) {
	const n = 100
	mk := func() *Tree {
		tr, err := New(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			tr.AddCounters(flow.Exact(6, flow.IPv4(0x0a000000+uint32(i)), 0xc0a80001, 1000, 80),
				flow.Counters{Packets: 1, Bytes: 100, Flows: 1})
		}
		return tr
	}
	cur := mk()
	base := cur.Clone()
	// Mutate exactly 10 of the n exact-flow entries: churn = 10 changed.
	for i := 0; i < 10; i++ {
		cur.AddCounters(flow.Exact(6, flow.IPv4(0x0a000000+uint32(i)), 0xc0a80001, 1000, 80),
			flow.Counters{Packets: 5, Bytes: 500, Flows: 1})
	}
	churn := 10.0 / float64(len(cur.wireEntries()))

	if frame, isDelta := cur.AppendDeltaOrFull(nil, base, churn*1.01); !isDelta {
		t.Fatal("churn just under threshold must emit a delta")
	} else if frame[4] != WireV3 {
		t.Fatalf("delta frame has version %d", frame[4])
	}
	frame, isDelta := cur.AppendDeltaOrFull(nil, base, churn*0.99)
	if isDelta {
		t.Fatal("churn above threshold must fall back to a full frame")
	}
	if frame[4] != WireV2 {
		t.Fatalf("fallback frame has version %d", frame[4])
	}
	if _, err := Decode(frame, 0); err != nil {
		t.Fatalf("fallback frame must be plain-decodable: %v", err)
	}
	// No base at all: always a full frame.
	if _, isDelta := cur.AppendDeltaOrFull(nil, nil, 0.5); isDelta {
		t.Fatal("nil base must emit a full frame")
	}
	// maxChurn <= 0 disables the fallback even at 100% churn.
	fresh := deltaTestTree(t, 77, 50)
	if _, isDelta := fresh.AppendDeltaOrFull(nil, base, 0); !isDelta {
		t.Fatal("maxChurn 0 must never fall back")
	}
}

// TestDecodeDeltaErrors covers the failure modes a federated receiver must
// surface rather than absorb.
func TestDecodeDeltaErrors(t *testing.T) {
	cur := deltaTestTree(t, 11, 200)
	base := cur.Clone()
	cur.AddCounters(cur.Entries()[0].Key, flow.Counters{Packets: 1, Bytes: 1, Flows: 1})
	frame, err := cur.AppendDelta(nil, base)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeDelta(frame, nil, 0); !errors.Is(err, ErrDeltaBase) {
		t.Errorf("nil base: err = %v, want ErrDeltaBase", err)
	}
	wrong := deltaTestTree(t, 12, 200)
	if _, err := DecodeDelta(frame, wrong, 0); !errors.Is(err, ErrDeltaBase) {
		t.Errorf("mismatched base: err = %v, want ErrDeltaBase", err)
	}
	if _, err := Decode(frame, 0); !errors.Is(err, ErrCodec) {
		t.Errorf("plain Decode of v3: err = %v, want ErrCodec", err)
	}
	if _, err := DecodeDelta(frame[:len(frame)-1], base, 0); err == nil {
		t.Error("truncated delta frame must error")
	}
	if _, err := DecodeDelta(frame[:wireHeaderSize+3], base, 0); !errors.Is(err, ErrCodec) {
		t.Error("short delta body must be ErrCodec")
	}
	// Non-canonical changed and removed lists behind a matching
	// fingerprint, and a non-canonical v2 frame on the pass-through path.
	for _, seed := range append(nonCanonicalV3(base), nonCanonicalV2()...) {
		if _, err := DecodeDelta(seed.data, base, 0); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: err = %v, want ErrCodec", seed.name, err)
		}
	}
	// Step-bits mismatch between frame and base.
	stepped, err := New(0, WithStepBits(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(frame, stepped, 0); !errors.Is(err, ErrDeltaBase) {
		t.Errorf("step mismatch: err = %v, want ErrDeltaBase", err)
	}
	// v1/v2 frames pass through DecodeDelta unchanged (back-compat), base
	// ignored even when wrong.
	full := cur.AppendBinary(nil)
	tr, err := DecodeDelta(full, wrong, 0)
	if err != nil {
		t.Fatalf("v2 through DecodeDelta: %v", err)
	}
	if tr.Total() != cur.Total() {
		t.Error("v2 through DecodeDelta lost weight")
	}
	v1, err := cur.AppendBinaryV(nil, WireV1)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := DecodeDelta(v1, nil, 0); err != nil || tr.Total() != cur.Total() {
		t.Errorf("v1 through DecodeDelta: %v", err)
	}
}

// TestDeltaHashMatchesEncoding: trees with identical wire content hash
// equal regardless of construction order; any weight difference changes the
// hash.
func TestDeltaHashMatchesEncoding(t *testing.T) {
	a := deltaTestTree(t, 21, 400)
	b, err := Decode(a.AppendBinary(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeltaHash() != b.DeltaHash() {
		t.Error("decode of a tree's encoding must hash equal")
	}
	if c := a.Clone(); c.DeltaHash() != a.DeltaHash() {
		t.Error("clone must hash equal")
	}
	b.AddCounters(b.Entries()[0].Key, flow.Counters{Packets: 1})
	if a.DeltaHash() == b.DeltaHash() {
		t.Error("weight bump must change the hash")
	}
}
