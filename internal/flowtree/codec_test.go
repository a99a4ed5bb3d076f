package flowtree

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"megadata/internal/flow"
)

// buildTree grows an unbudgeted tree from pseudo-random records derived
// from xs (reusing the generator the property tests share).
func buildTree(t *testing.T, xs []uint32) *Tree {
	t.Helper()
	tr, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		tr.Add(randomRecord(x, x*31, uint16(x), uint16(x>>7), x%4096))
	}
	return tr
}

// entriesEqual compares the exact weighted content of two trees.
func entriesEqual(a, b *Tree) bool {
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// Property: SizeBytes matches the serialized length byte for byte, in both
// wire versions.
func TestPropWireSizeMatchesEncoding(t *testing.T) {
	f := func(xs []uint32) bool {
		tr := buildTree(t, xs)
		for _, v := range []byte{WireV1, WireV2} {
			buf, err := tr.AppendBinaryV(nil, v)
			if err != nil {
				return false
			}
			n, err := tr.WireSizeBytes(v)
			if err != nil || n != uint64(len(buf)) {
				t.Logf("v%d: SizeBytes=%d len=%d", v, n, len(buf))
				return false
			}
		}
		// SizeBytes is the current emit version (v2 == AppendBinary).
		return tr.SizeBytes() == uint64(len(tr.AppendBinary(nil)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: v2 encode -> decode round-trips the exact weighted entries.
func TestPropV2RoundTripExact(t *testing.T) {
	f := func(xs []uint32) bool {
		tr := buildTree(t, xs)
		buf := tr.AppendBinary(nil)
		back, err := Decode(buf, 0)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return entriesEqual(tr, back) && back.StepBits() == tr.StepBits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: v1 blobs still decode (back-compat) and agree with v2 decodes
// of the same tree.
func TestPropV1BackCompat(t *testing.T) {
	f := func(xs []uint32) bool {
		tr := buildTree(t, xs)
		v1, err := tr.AppendBinaryV(nil, WireV1)
		if err != nil {
			return false
		}
		if v1[4] != WireV1 {
			return false
		}
		back, err := Decode(v1, 0)
		if err != nil {
			t.Logf("v1 decode: %v", err)
			return false
		}
		return entriesEqual(tr, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestV1WireLayoutFrozen pins the v1 layout to the pre-v2 fixed-width
// encoding: a header plus 40 bytes per weighted node, keys encoded exactly
// as flow.Key.AppendBinary. Old stored blobs must keep decoding forever.
func TestV1WireLayoutFrozen(t *testing.T) {
	tr, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	rec := flow.Record{Key: flow.Exact(flow.ProtoTCP, 0x0A000001, 0xC0A80101, 40000, 443), Packets: 3, Bytes: 1200}
	tr.Add(rec)
	buf, err := tr.AppendBinaryV(nil, WireV1)
	if err != nil {
		t.Fatal(err)
	}
	// Ancestors carry no own weight: exactly one 40-byte record after the
	// 6-byte header and 8-byte count.
	if len(buf) != 6+8+40 {
		t.Fatalf("v1 blob is %d bytes, want %d", len(buf), 6+8+40)
	}
	wantKey := rec.Key.AppendBinary(nil)
	if !bytes.Equal(buf[14:30], wantKey) {
		t.Errorf("v1 key bytes = %x, want %x", buf[14:30], wantKey)
	}
}

// TestV2SmallerThanV1 checks the codec's reason to exist on a clustered
// key set: the compact encoding must come in well under the fixed-width
// one (the WAN-byte acceptance bound lives in flowstream, asserted through
// WANBytes on the workload generator's default mix).
func TestV2SmallerThanV1(t *testing.T) {
	tr, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 2000; i++ {
		tr.Add(randomRecord(i%257, i*7, uint16(i%100), 443, i%5000))
	}
	v1, _ := tr.WireSizeBytes(WireV1)
	v2, _ := tr.WireSizeBytes(WireV2)
	if v2*10 > v1*7 {
		t.Errorf("v2 %dB is not <=70%% of v1 %dB", v2, v1)
	}
}

// TestDecodeV2Malformed exercises the v2 decoder's validation paths.
func TestDecodeV2Malformed(t *testing.T) {
	tr, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Add(flow.Record{Key: flow.Exact(flow.ProtoUDP, 0x01020304, 0x05060708, 53, 5353), Packets: 1, Bytes: 99})
	good := tr.AppendBinary(nil)
	if _, err := Decode(good, 0); err != nil {
		t.Fatalf("good blob: %v", err)
	}
	// Non-canonical streams: what a conforming encoder never emits and what
	// would make decode∘encode lose nodes or sum weights silently.
	for _, seed := range nonCanonicalV2() {
		if _, err := Decode(seed.data, 0); !errors.Is(err, ErrCodec) {
			t.Errorf("%s (% x): err = %v, want ErrCodec", seed.name, seed.data[wireHeaderSize:], err)
		}
	}
	for name, mut := range map[string]func([]byte) []byte{
		"truncated body":   func(b []byte) []byte { return b[:len(b)-2] },
		"trailing bytes":   func(b []byte) []byte { return append(append([]byte{}, b...), 0) },
		"reserved flag":    func(b []byte) []byte { c := append([]byte{}, b...); c[7] |= 0x80; return c },
		"oversized count":  func(b []byte) []byte { c := append([]byte{}, b...); c[6] = 0xff; return c[:7] },
		"unknown version":  func(b []byte) []byte { c := append([]byte{}, b...); c[4] = 9; return c },
		"truncated header": func(b []byte) []byte { return b[:4] },
	} {
		if _, err := Decode(mut(good), 0); err == nil {
			t.Errorf("%s: decode accepted malformed blob", name)
		}
	}
}

// TestAppendBinaryVUnknownVersion rejects versions the codec cannot emit.
func TestAppendBinaryVUnknownVersion(t *testing.T) {
	tr, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AppendBinaryV(nil, 3); err == nil {
		t.Error("AppendBinaryV(3) must error")
	}
	if _, err := tr.WireSizeBytes(0); err == nil {
		t.Error("WireSizeBytes(0) must error")
	}
}
