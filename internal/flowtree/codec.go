package flowtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"megadata/internal/flow"
)

// # Wire format
//
// A Flowtree travels as a 6-byte fixed header — magic "FLWT", a version
// byte, and the generalization step — followed by a version-specific body
// carrying every node with non-zero own weight. This is what data stores
// exchange when exporting Flowtrees across the hierarchy (Figure 5, step 3)
// and what replication ships, so its density is exactly the WAN bytes the
// system exists to save.
//
// Version 1 (legacy, fixed width):
//
//	header | uint64 count | count * (16-byte key + 3 * uint64 counters)
//
// 40 bytes per node regardless of content. Emitted only on request
// (AppendBinaryV with WireV1); always accepted by Decode for back-compat
// with stored blobs and old peers, in any entry order (early encoders did
// not sort).
//
// Version 2 (current, compact):
//
//	header | uvarint count | count * entry
//
// Entries are sorted by the deterministic key order (SrcIP, DstIP, SrcPort,
// DstPort, Proto, prefixes, wildcard bits — keyLess), keys normalized. Each
// entry is a flags byte naming the key fields that differ from the previous
// entry, the changed fields only — SrcIP as a uvarint delta against the
// previous entry's SrcIP (ascending in the sort order, so deltas stay
// small), the rest as uvarint/byte absolutes — and the three counters as
// uvarints. Flow keys cluster in real traces (few /8s, shared ports), so
// most entries ship a handful of bytes instead of 40. AppendBinary and
// SizeBytes both speak v2; Decode dispatches on the version byte.
//
// The stream is canonical and Decode holds it to that, in every version:
// each entry carries weight (some counter non-zero), each key is its own
// normalization (no address bits below its prefix, no value behind a
// wildcard) and appears once — in v2 and v3, strictly ascending. A frame
// that breaks a rule is ErrCodec, never a tree that would re-encode to
// different bytes. In exchange the decoded entry list is the tree's wire
// entry list: the decoder bulk-loads the slab from it and keeps it as the
// entry cache.
//
// Version 3 (delta, epoch-to-epoch):
//
//	header | 8-byte base fingerprint | uvarint changed count |
//	changed entries | uvarint removed count | removed keys
//
// A v3 frame carries the difference between this tree and a base tree the
// receiver already retains (the last acked epoch). The fingerprint is
// DeltaHash of the base; the receiver verifies its retained copy matches
// before applying (ErrDeltaBase otherwise). Changed entries are added or
// re-weighted keys with their absolute counters, encoded exactly like v2
// entries (sorted keyLess, prefix-delta keys); removed keys are keys present
// in the base but absent now, encoded as v2 key diffs without counters.
// Both lists are canonical as above. Decoding merge-walks them with the
// retained base's entry list — a removal must name a base entry, no key may
// be both changed and removed — and loads the full tree from the result;
// see AppendDelta / DecodeDelta in delta.go. Senders fall back to a full v2
// frame when churn is too high for the delta to pay or no acked base exists
// (AppendDeltaOrFull); plain Decode rejects v3 frames because they are
// meaningless without the base.
const (
	_wireMagic = 0x464C5754 // "FLWT"
	// WireV1 is the legacy fixed-width wire format (40 bytes/node).
	WireV1 = 1
	// WireV2 is the compact sorted prefix-delta wire format.
	WireV2 = 2
	// WireV3 is the epoch-delta wire format (relative to a retained base).
	WireV3 = 3
	// wireHeaderSize is magic + version + stepBits, shared by all versions.
	wireHeaderSize = 6
	// nodeWireSizeV1 is 16 bytes of key + 3*8 bytes of counters.
	nodeWireSizeV1 = 16 + 24
)

// v2 entry flags: which key fields differ from the previous entry.
const (
	v2FlagSrcIP    = 1 << 0 // uvarint delta vs previous SrcIP
	v2FlagDstIP    = 1 << 1 // uvarint absolute
	v2FlagSrcPort  = 1 << 2 // uvarint absolute
	v2FlagDstPort  = 1 << 3 // uvarint absolute
	v2FlagProto    = 1 << 4 // one byte
	v2FlagPrefixes = 1 << 5 // two bytes: SrcPrefix, DstPrefix
	v2FlagWild     = 1 << 6 // one byte: bit0 proto, bit1 sport, bit2 dport
	v2FlagReserved = 1 << 7 // must be zero
)

// ErrCodec is returned for malformed Flowtree wire data.
var ErrCodec = errors.New("flowtree: malformed wire data")

// appendHeader emits the version-independent 6-byte header.
func (t *Tree) appendHeader(dst []byte, version byte) []byte {
	var hdr [wireHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:], _wireMagic)
	hdr[4] = version
	hdr[5] = t.stepBits
	return append(dst, hdr[:]...)
}

// AppendBinary serializes the tree's weighted nodes in the current wire
// version (WireV2).
func (t *Tree) AppendBinary(dst []byte) []byte {
	out, err := t.AppendBinaryV(dst, WireV2)
	if err != nil {
		// WireV2 is always valid; this is unreachable.
		panic(err)
	}
	return out
}

// AppendBinaryV serializes the tree in an explicit wire version: WireV2 for
// new exports, WireV1 to interoperate with peers that predate the compact
// codec.
func (t *Tree) AppendBinaryV(dst []byte, version byte) ([]byte, error) {
	switch version {
	case WireV1:
		return t.appendBinaryV1(dst), nil
	case WireV2:
		return t.appendBinaryV2(dst), nil
	default:
		return nil, fmt.Errorf("flowtree: unknown wire version %d", version)
	}
}

func (t *Tree) appendBinaryV1(dst []byte) []byte {
	entries := t.wireEntries()
	dst = t.appendHeader(dst, WireV1)
	var cnt [8]byte
	binary.BigEndian.PutUint64(cnt[:], uint64(len(entries)))
	dst = append(dst, cnt[:]...)
	for _, e := range entries {
		dst = e.Key.AppendBinary(dst)
		var c [24]byte
		binary.BigEndian.PutUint64(c[0:], e.Counters.Packets)
		binary.BigEndian.PutUint64(c[8:], e.Counters.Bytes)
		binary.BigEndian.PutUint64(c[16:], e.Counters.Flows)
		dst = append(dst, c[:]...)
	}
	return dst
}

// v2KeyDiff computes the flags byte for encoding key against prev.
func v2KeyDiff(prev, key flow.Key) byte {
	var flags byte
	if key.SrcIP != prev.SrcIP {
		flags |= v2FlagSrcIP
	}
	if key.DstIP != prev.DstIP {
		flags |= v2FlagDstIP
	}
	if key.SrcPort != prev.SrcPort {
		flags |= v2FlagSrcPort
	}
	if key.DstPort != prev.DstPort {
		flags |= v2FlagDstPort
	}
	if key.Proto != prev.Proto {
		flags |= v2FlagProto
	}
	if key.SrcPrefix != prev.SrcPrefix || key.DstPrefix != prev.DstPrefix {
		flags |= v2FlagPrefixes
	}
	if key.WildProto != prev.WildProto || key.WildSrcPort != prev.WildSrcPort ||
		key.WildDstPort != prev.WildDstPort {
		flags |= v2FlagWild
	}
	return flags
}

func wildByte(k flow.Key) byte {
	var w byte
	if k.WildProto {
		w |= 1
	}
	if k.WildSrcPort {
		w |= 2
	}
	if k.WildDstPort {
		w |= 4
	}
	return w
}

// v2AppendKey emits one key delta-encoded against prev: the flags byte
// naming the differing fields, then the changed fields only. Shared by v2
// entries and the v3 removed-key list.
func v2AppendKey(dst []byte, prev, k flow.Key) []byte {
	flags := v2KeyDiff(prev, k)
	dst = append(dst, flags)
	if flags&v2FlagSrcIP != 0 {
		dst = binary.AppendUvarint(dst, uint64(k.SrcIP-prev.SrcIP))
	}
	if flags&v2FlagDstIP != 0 {
		dst = binary.AppendUvarint(dst, uint64(k.DstIP))
	}
	if flags&v2FlagSrcPort != 0 {
		dst = binary.AppendUvarint(dst, uint64(k.SrcPort))
	}
	if flags&v2FlagDstPort != 0 {
		dst = binary.AppendUvarint(dst, uint64(k.DstPort))
	}
	if flags&v2FlagProto != 0 {
		dst = append(dst, byte(k.Proto))
	}
	if flags&v2FlagPrefixes != 0 {
		dst = append(dst, k.SrcPrefix, k.DstPrefix)
	}
	if flags&v2FlagWild != 0 {
		dst = append(dst, wildByte(k))
	}
	return dst
}

// v2AppendEntry emits one v2 entry delta-encoded against prev. It is the
// single source of truth for the entry layout: the encoder and the exact
// size computation (WireSizeBytes) both go through it.
func v2AppendEntry(dst []byte, prev flow.Key, e Entry) []byte {
	dst = v2AppendKey(dst, prev, e.Key)
	dst = binary.AppendUvarint(dst, e.Counters.Packets)
	dst = binary.AppendUvarint(dst, e.Counters.Bytes)
	dst = binary.AppendUvarint(dst, e.Counters.Flows)
	return dst
}

func (t *Tree) appendBinaryV2(dst []byte) []byte {
	entries := t.wireEntries()
	dst = t.appendHeader(dst, WireV2)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	var prev flow.Key
	for _, e := range entries {
		dst = v2AppendEntry(dst, prev, e)
		prev = e.Key
	}
	return dst
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) uint64 {
	n := uint64(1)
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// SizeBytes returns the serialized size in the current wire version
// (WireV2) without serializing — the byte volume metered by simnet when the
// tree is shipped, and always equal to len(AppendBinary(nil)). Exactness
// requires the same sorted-delta walk as encoding, so the cost is
// O(n log n) in the tree's weighted nodes (budget-bounded on budgeted
// trees); callers that only need a footprint estimate on a hot path can
// use Len()*bytes-per-node instead.
func (t *Tree) SizeBytes() uint64 {
	n, err := t.WireSizeBytes(WireV2)
	if err != nil {
		panic(err) // WireV2 is always valid; unreachable.
	}
	return n
}

// WireSizeBytes returns the serialized size in an explicit wire version,
// equal to len(AppendBinaryV(nil, version)) byte for byte.
func (t *Tree) WireSizeBytes(version byte) (uint64, error) {
	switch version {
	case WireV1:
		n := uint64(len(t.wireEntries()))
		return wireHeaderSize + 8 + n*nodeWireSizeV1, nil
	case WireV2:
		entries := t.wireEntries()
		n := wireHeaderSize + uvarintLen(uint64(len(entries)))
		// Measure by encoding each entry into a reused scratch buffer:
		// exact by construction, one small allocation per call. A v2
		// entry is at most 1 flags + 5+5+3+3 key varints + 4 fixed key
		// bytes + 3*10 counter varints = 51 bytes.
		scratch := make([]byte, 0, 64)
		var prev flow.Key
		for _, e := range entries {
			n += uint64(len(v2AppendEntry(scratch[:0], prev, e)))
			prev = e.Key
		}
		return n, nil
	default:
		return 0, fmt.Errorf("flowtree: unknown wire version %d", version)
	}
}

// Decode reconstructs a tree from wire data produced by AppendBinary /
// AppendBinaryV; both wire versions are accepted (the version byte
// dispatches). The result uses the supplied budget and options; the
// generalization step is taken from the wire header. Only canonical
// streams decode — what the encoders emit: weighted entries, normalized
// keys, no key twice (v2: strictly ascending) — so decode∘encode is the
// identity on accepted input; anything else is ErrCodec. The tree is
// bulk-loaded (see load): exact-fit slab, key index deferred, entry cache
// primed; the budget is enforced once at the end.
func Decode(src []byte, budget int, opts ...Option) (*Tree, error) {
	if len(src) < wireHeaderSize {
		return nil, fmt.Errorf("%w: short header", ErrCodec)
	}
	if binary.BigEndian.Uint32(src[0:]) != _wireMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCodec)
	}
	version := src[4]
	body := src[wireHeaderSize:]
	t, err := newTree(budget, src[5], opts)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	switch version {
	case WireV1:
		entries, err = decodeV1(body)
	case WireV2:
		entries, err = decodeV2(body)
	case WireV3:
		return nil, fmt.Errorf("%w: v3 is a delta frame and needs the retained base (use DecodeDelta)", ErrCodec)
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCodec, version)
	}
	if err != nil {
		return nil, err
	}
	t.load(entries)
	t.maybeCompress()
	return t, nil
}

// decodeV1 parses a v1 body into the canonical entry list. Blobs written
// before the encoder sorted its output are in arbitrary order, so the list
// is sorted here; a key twice or a zero weight is still malformed.
func decodeV1(src []byte) ([]Entry, error) {
	if len(src) < 8 {
		return nil, fmt.Errorf("%w: short header", ErrCodec)
	}
	count := binary.BigEndian.Uint64(src)
	src = src[8:]
	if count > uint64(len(src))/nodeWireSizeV1 || uint64(len(src)) != count*nodeWireSizeV1 {
		return nil, fmt.Errorf("%w: body is %d bytes for %d entries", ErrCodec, len(src), count)
	}
	entries := make([]Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		key, n, err := flow.KeyFromBinary(src)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCodec, err)
		}
		src = src[n:]
		entries = append(entries, Entry{Key: key, Counters: flow.Counters{
			Packets: binary.BigEndian.Uint64(src[0:]),
			Bytes:   binary.BigEndian.Uint64(src[8:]),
			Flows:   binary.BigEndian.Uint64(src[16:]),
		}})
		src = src[24:]
	}
	slices.SortFunc(entries, cmpEntryKeys)
	for i, e := range entries {
		if e.Counters.IsZero() {
			return nil, fmt.Errorf("%w: entry with zero weight", ErrCodec)
		}
		if i > 0 && entries[i-1].Key == e.Key {
			return nil, fmt.Errorf("%w: key %v twice", ErrCodec, e.Key)
		}
	}
	return entries, nil
}

// v2Reader consumes the v2 body with bounds checking.
type v2Reader struct {
	src []byte
	err error
}

func (r *v2Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.src)
	if n <= 0 {
		r.err = fmt.Errorf("%w: truncated or oversized uvarint", ErrCodec)
		return 0
	}
	r.src = r.src[n:]
	return v
}

func (r *v2Reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.src) == 0 {
		r.err = fmt.Errorf("%w: truncated entry", ErrCodec)
		return 0
	}
	b := r.src[0]
	r.src = r.src[1:]
	return b
}

// key decodes one delta-encoded key against prev (the inverse of
// v2AppendKey), validating every field's range. On error the reader's err is
// set and the partial key is returned; callers check r.err.
func (r *v2Reader) key(prev flow.Key) flow.Key {
	flags := r.byte()
	if r.err == nil && flags&v2FlagReserved != 0 {
		r.err = fmt.Errorf("%w: reserved flag set", ErrCodec)
		return prev
	}
	k := prev
	if flags&v2FlagSrcIP != 0 {
		delta := r.uvarint()
		if r.err == nil && delta > uint64(^uint32(0))-uint64(k.SrcIP) {
			r.err = fmt.Errorf("%w: source address delta overflows", ErrCodec)
			return k
		}
		k.SrcIP += flow.IPv4(delta)
	}
	if flags&v2FlagDstIP != 0 {
		v := r.uvarint()
		if r.err == nil && v > uint64(^uint32(0)) {
			r.err = fmt.Errorf("%w: destination address out of range", ErrCodec)
			return k
		}
		k.DstIP = flow.IPv4(v)
	}
	if flags&v2FlagSrcPort != 0 {
		v := r.uvarint()
		if r.err == nil && v > uint64(^uint16(0)) {
			r.err = fmt.Errorf("%w: source port out of range", ErrCodec)
			return k
		}
		k.SrcPort = uint16(v)
	}
	if flags&v2FlagDstPort != 0 {
		v := r.uvarint()
		if r.err == nil && v > uint64(^uint16(0)) {
			r.err = fmt.Errorf("%w: destination port out of range", ErrCodec)
			return k
		}
		k.DstPort = uint16(v)
	}
	if flags&v2FlagProto != 0 {
		k.Proto = flow.Proto(r.byte())
	}
	if flags&v2FlagPrefixes != 0 {
		k.SrcPrefix = r.byte()
		k.DstPrefix = r.byte()
		if r.err == nil && (k.SrcPrefix > 32 || k.DstPrefix > 32) {
			r.err = fmt.Errorf("%w: prefix out of range (%d,%d)", ErrCodec, k.SrcPrefix, k.DstPrefix)
			return k
		}
	}
	if flags&v2FlagWild != 0 {
		w := r.byte()
		if r.err == nil && w > 7 {
			r.err = fmt.Errorf("%w: unknown wildcard bits %#x", ErrCodec, w)
			return k
		}
		k.WildProto = w&1 != 0
		k.WildSrcPort = w&2 != 0
		k.WildDstPort = w&4 != 0
	}
	return k
}

// canonicalKey decodes one key against prev and enforces the canonical
// stream rules shared by v2 entries and both v3 lists: the key is its own
// normalization and, unless first, sorts strictly after prev.
func (r *v2Reader) canonicalKey(prev flow.Key, first bool) flow.Key {
	k := r.key(prev)
	if r.err != nil {
		return k
	}
	switch {
	case k != k.Normalized():
		r.err = fmt.Errorf("%w: key %v not normalized", ErrCodec, k)
	case !first && !keyLess(prev, k):
		r.err = fmt.Errorf("%w: keys out of order", ErrCodec)
	}
	return k
}

// entries decodes count v2 entries into a canonical list: normalized keys
// strictly ascending in keyLess, every weight non-zero.
func (r *v2Reader) entries(count uint64) []Entry {
	// Each entry is at least 4 bytes (flags + three counter uvarints);
	// reject counts that cannot fit before allocating per entry.
	if r.err == nil && count > uint64(len(r.src))/4 {
		r.err = fmt.Errorf("%w: %d entries cannot fit in %d bytes", ErrCodec, count, len(r.src))
	}
	if r.err != nil {
		return nil
	}
	out := make([]Entry, 0, count)
	var prev flow.Key
	for i := uint64(0); i < count; i++ {
		k := r.canonicalKey(prev, i == 0)
		c := flow.Counters{
			Packets: r.uvarint(),
			Bytes:   r.uvarint(),
			Flows:   r.uvarint(),
		}
		if r.err == nil && c.IsZero() {
			r.err = fmt.Errorf("%w: entry with zero weight", ErrCodec)
		}
		if r.err != nil {
			return nil
		}
		out = append(out, Entry{Key: k, Counters: c})
		prev = k
	}
	return out
}

// end reports the reader's error, or trailing bytes after a complete body.
func (r *v2Reader) end() error {
	if r.err == nil && len(r.src) != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(r.src))
	}
	return r.err
}

func decodeV2(src []byte) ([]Entry, error) {
	r := &v2Reader{src: src}
	entries := r.entries(r.uvarint())
	return entries, r.end()
}
