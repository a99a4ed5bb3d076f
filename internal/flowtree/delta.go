package flowtree

// Epoch-delta codec (wire version 3). Federated exporters ship the same
// site's tree every epoch, and on low-churn traffic consecutive epochs
// share most of their entries. A v3 frame therefore carries only the
// structural difference against the last frame the receiver acknowledged:
// changed entries (added or re-weighted keys with their absolute counters)
// and removed keys. The sorted-key v2 layout makes computing that
// difference a linear merge-walk over the two entry lists, and applying it
// a linear rebuild. The frame pins its base with an 8-byte fingerprint
// (DeltaHash) so a desynchronized receiver fails loudly (ErrDeltaBase)
// instead of silently merging onto the wrong epoch; senders then recover by
// falling back to a full v2 frame (AppendDeltaOrFull).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"megadata/internal/flow"
)

// ErrDeltaBase is returned when a v3 delta frame cannot be applied: the
// receiver retains no base tree, or the retained base does not match the
// fingerprint the frame was encoded against. The sender's recovery is a
// full v2 frame.
var ErrDeltaBase = errors.New("flowtree: delta base mismatch")

// deltaHashSize is the base fingerprint width in the v3 body.
const deltaHashSize = 8

// DeltaHash fingerprints the tree's wire-visible content: FNV-64a over the
// generalization step and every weighted entry (normalized key and
// counters) in the deterministic wire order. Two trees that encode to the
// same v2 bytes hash equal; v3 frames embed the base's hash so the decoder
// can verify it is applying the delta onto the tree the encoder diffed
// against.
func (t *Tree) DeltaHash() uint64 {
	h := fnv.New64a()
	var buf [24]byte
	buf[0] = t.stepBits
	h.Write(buf[:1])
	key := make([]byte, 0, 16)
	for _, e := range t.wireEntries() {
		key = e.Key.AppendBinary(key[:0])
		h.Write(key)
		binary.BigEndian.PutUint64(buf[0:], e.Counters.Packets)
		binary.BigEndian.PutUint64(buf[8:], e.Counters.Bytes)
		binary.BigEndian.PutUint64(buf[16:], e.Counters.Flows)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// treeDelta is the structural difference between two sorted wire-entry
// lists: entries to upsert and keys to drop.
type treeDelta struct {
	changed []Entry
	removed []flow.Key
}

// diffEntries merge-walks two keyLess-sorted entry lists and returns the
// delta transforming base into cur. O(len(cur) + len(base)).
func diffEntries(cur, base []Entry) treeDelta {
	var d treeDelta
	i, j := 0, 0
	for i < len(cur) && j < len(base) {
		switch {
		case cur[i].Key == base[j].Key:
			if cur[i].Counters != base[j].Counters {
				d.changed = append(d.changed, cur[i])
			}
			i++
			j++
		case keyLess(cur[i].Key, base[j].Key):
			d.changed = append(d.changed, cur[i])
			i++
		default:
			d.removed = append(d.removed, base[j].Key)
			j++
		}
	}
	d.changed = append(d.changed, cur[i:]...)
	for ; j < len(base); j++ {
		d.removed = append(d.removed, base[j].Key)
	}
	return d
}

// AppendDelta serializes t as a v3 delta frame against base, the tree the
// receiver is known to retain (typically the last acked epoch's decode).
// The base must share t's generalization step; a nil or mismatched base is
// ErrDeltaBase — callers that may lack a base use AppendDeltaOrFull.
func (t *Tree) AppendDelta(dst []byte, base *Tree) ([]byte, error) {
	if base == nil {
		return nil, fmt.Errorf("%w: nil base", ErrDeltaBase)
	}
	if base.stepBits != t.stepBits {
		return nil, fmt.Errorf("%w: generalization step %d vs base %d", ErrDeltaBase, t.stepBits, base.stepBits)
	}
	return t.appendDelta(dst, base, diffEntries(t.wireEntries(), base.wireEntries())), nil
}

func (t *Tree) appendDelta(dst []byte, base *Tree, d treeDelta) []byte {
	dst = t.appendHeader(dst, WireV3)
	var hb [deltaHashSize]byte
	binary.BigEndian.PutUint64(hb[:], base.DeltaHash())
	dst = append(dst, hb[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(d.changed)))
	var prev flow.Key
	for _, e := range d.changed {
		dst = v2AppendEntry(dst, prev, e)
		prev = e.Key
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.removed)))
	prev = flow.Key{}
	for _, k := range d.removed {
		dst = v2AppendKey(dst, prev, k)
		prev = k
	}
	return dst
}

// AppendDeltaOrFull serializes t as a v3 delta frame against base when a
// delta pays, and as a full v2 frame otherwise: no usable base (nil or
// different generalization step), or churn — changed plus removed entries —
// exceeding maxChurn as a fraction of t's entry count (maxChurn <= 0
// disables the fallback). The second return reports whether a delta was
// emitted; senders use it to know the receiver must hold the base.
func (t *Tree) AppendDeltaOrFull(dst []byte, base *Tree, maxChurn float64) ([]byte, bool) {
	if base == nil || base.stepBits != t.stepBits {
		return t.AppendBinary(dst), false
	}
	cur := t.wireEntries()
	d := diffEntries(cur, base.wireEntries())
	if maxChurn > 0 {
		n := len(cur)
		if n == 0 {
			n = 1
		}
		if float64(len(d.changed)+len(d.removed)) > maxChurn*float64(n) {
			return t.AppendBinary(dst), false
		}
	}
	return t.appendDelta(dst, base, d), true
}

// DecodeDelta reconstructs the full tree from wire data, applying v3 delta
// frames onto base (the receiver's retained copy of the last acked epoch,
// which is never modified). Full v1/v2 frames decode as usual with base
// ignored, so a receive loop can feed every frame through DecodeDelta. A v3
// frame whose fingerprint does not match base fails with ErrDeltaBase; the
// result uses the supplied budget and options like Decode, and both lists
// of the frame must be canonical (see Decode).
func DecodeDelta(src []byte, base *Tree, budget int, opts ...Option) (*Tree, error) {
	if len(src) < wireHeaderSize {
		return nil, fmt.Errorf("%w: short header", ErrCodec)
	}
	if binary.BigEndian.Uint32(src[0:]) != _wireMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCodec)
	}
	if src[4] != WireV3 {
		return Decode(src, budget, opts...)
	}
	stepBits := src[5]
	if base == nil {
		return nil, fmt.Errorf("%w: v3 frame with no retained base", ErrDeltaBase)
	}
	if base.stepBits != stepBits {
		return nil, fmt.Errorf("%w: frame step %d, base step %d", ErrDeltaBase, stepBits, base.stepBits)
	}
	body := src[wireHeaderSize:]
	if len(body) < deltaHashSize {
		return nil, fmt.Errorf("%w: short delta body", ErrCodec)
	}
	wantHash := binary.BigEndian.Uint64(body)
	if got := base.DeltaHash(); got != wantHash {
		return nil, fmt.Errorf("%w: retained base hashes %#016x, frame expects %#016x", ErrDeltaBase, got, wantHash)
	}

	r := &v2Reader{src: body[deltaHashSize:]}
	changed := r.entries(r.uvarint())
	removedCount := r.uvarint()
	// A removed key is at least 1 byte (its flags).
	if r.err == nil && removedCount > uint64(len(r.src)) {
		r.err = fmt.Errorf("%w: %d removed keys cannot fit in %d bytes", ErrCodec, removedCount, len(r.src))
	}
	if r.err != nil {
		return nil, r.err
	}
	removed := make([]flow.Key, 0, removedCount)
	var prev flow.Key
	for i := uint64(0); i < removedCount && r.err == nil; i++ {
		prev = r.canonicalKey(prev, i == 0)
		removed = append(removed, prev)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	entries, err := applyDelta(base.wireEntries(), changed, removed)
	if err != nil {
		return nil, err
	}
	t, err := newTree(budget, stepBits, opts)
	if err != nil {
		return nil, err
	}
	t.load(entries)
	t.maybeCompress()
	return t, nil
}

// applyDelta is diffEntries' inverse: one merge-walk over the base's entry
// list, the changed entries and the removed keys (all three strictly
// ascending in keyLess) that emits the resulting tree's entries in wire
// order. A removal must name a base entry, and a key cannot be both
// changed and removed.
func applyDelta(base, changed []Entry, removed []flow.Key) ([]Entry, error) {
	if len(removed) > len(base) {
		return nil, fmt.Errorf("%w: %d removals from a %d-entry base", ErrCodec, len(removed), len(base))
	}
	out := make([]Entry, 0, len(base)-len(removed)+len(changed))
	c, r := 0, 0
	for _, b := range base {
		for c < len(changed) && keyLess(changed[c].Key, b.Key) {
			out = append(out, changed[c])
			c++
		}
		if r < len(removed) && keyLess(removed[r], b.Key) {
			break // sorts before b and matched nothing: not a base entry
		}
		drop := r < len(removed) && removed[r] == b.Key
		replace := c < len(changed) && changed[c].Key == b.Key
		switch {
		case drop && replace:
			return nil, fmt.Errorf("%w: key %v both changed and removed", ErrCodec, b.Key)
		case drop:
			r++
		case replace:
			out = append(out, changed[c])
			c++
		default:
			out = append(out, b)
		}
	}
	if r < len(removed) {
		return nil, fmt.Errorf("%w: removed key %v absent from base", ErrCodec, removed[r])
	}
	return append(out, changed[c:]...), nil
}
