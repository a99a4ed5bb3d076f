// Package uplink is the one export hop of the paper's pipeline (Figure 5
// steps 3-4): a sealed, combinable Flowtree summary shipped one level up.
// An Uplink owns everything about that hop that does not depend on who is
// sending — the ordered pending queue, the ship lock that keeps frames in
// stream order, the v3 delta chain at both ends, the on-disk spill tier and
// the drop/spill counters. flowstream.System keeps one per site toward
// central; federation.Fleet keeps one per node toward its parent. What
// differs between them is passed in as three closures: how bytes cross the
// link (Transfer), what the receiver does with a decoded summary (Deliver)
// and when a frame the link left behind loses its in-memory slot (Evict).
// The hops that end at the central FlowDB share their Deliver as well:
// Central parks their rows for one InsertBatch per export round.
package uplink

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"megadata/internal/flowtree"
	"megadata/internal/simnet"
	"megadata/internal/storage"
	"megadata/internal/storage/disk"
	"megadata/internal/storage/diskio"
)

// Config parameterizes one hop. The three closures run under the hop's ship
// lock and must not call back into the Uplink.
type Config struct {
	// Name is the sending site: it identifies the hop in errors and names
	// its spill directory.
	Name string
	// Delta ships each summary as a v3 delta frame against the previous
	// frame in this hop's stream when churn permits
	// (flowtree.AppendDeltaOrFull); the receiving end retains a
	// full-fidelity decode to apply the next delta onto. MaxChurn is the
	// full-frame fallback threshold.
	Delta    bool
	MaxChurn float64
	// SpillDir enables the spill tier: an evicted frame moves to an on-disk
	// segment store under SpillDir/Name instead of being dropped, and
	// re-ships from disk. Empty disables it. FS is the filesystem seam the
	// store writes through (nil = the real filesystem).
	SpillDir string
	FS       diskio.FS
	// Transfer moves n bytes across the link. An error wrapping
	// simnet.ErrTransient re-queues the frame silently; any other error
	// re-queues it and surfaces.
	Transfer func(n uint64) error
	// Deliver hands the receiver the full-fidelity decode of one delivered
	// frame. With Delta set the tree is retained as the next delta's base,
	// so the receiver must clone before mutating it. An error is handled
	// like an undecodable frame.
	Deliver func(start time.Time, width time.Duration, tree *flowtree.Tree) error
	// Evict reports whether a frame still queued after a ship attempt must
	// leave memory; queuedBytes is the in-memory wire bytes queued from this
	// frame on.
	Evict func(start time.Time, queuedBytes uint64) bool
}

// Stats counts what one hop dropped and spilled; owners sum them over hops.
type Stats struct {
	// DroppedChain counts frames dropped for chain integrity at ship time:
	// deltas queued behind a frame that could not be read or decoded.
	DroppedChain uint64
	// DroppedEvicted counts queued frames lost to eviction: evicted with no
	// spill tier (or a failed spill write), unreadable when re-shipped from
	// disk, or chained behind an evicted frame.
	DroppedEvicted uint64
	// SpilledFrames / SpilledBytes count frames moved to the spill store
	// (cumulative, not currently resident).
	SpilledFrames uint64
	SpilledBytes  uint64
	// SpillErrors counts failed spill-store opens and writes (each falls
	// back to dropping the frame).
	SpillErrors uint64
	// CorruptSpills counts spilled frames that failed checksum verification
	// or went missing at re-ship time — corrupt bytes are never decoded or
	// shipped.
	CorruptSpills uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.DroppedChain += o.DroppedChain
	s.DroppedEvicted += o.DroppedEvicted
	s.SpilledFrames += o.SpilledFrames
	s.SpilledBytes += o.SpilledBytes
	s.SpillErrors += o.SpillErrors
	s.CorruptSpills += o.CorruptSpills
}

// frame is one sealed, encoded epoch awaiting (re-)shipment.
type frame struct {
	start time.Time
	width time.Duration
	wire  []byte
	// delta marks a v3 frame, decodable only right after the frame before
	// it in the stream (chain integrity).
	delta bool
	// spilled marks a frame whose bytes live in the spill store instead of
	// wire (which is nil); ship re-reads it by start time and drops it from
	// disk once delivered.
	spilled bool
}

// Uplink is one sender-to-receiver export hop.
type Uplink struct {
	cfg Config

	// mu is the ship lock. It serializes drain-and-ship sections (Export vs
	// Retry): whichever caller wins drains the pending queue and delivers
	// first, so frames always reach the receiver in stream order — the
	// invariant delta chains decode under. It guards every field below.
	mu sync.Mutex
	// pending queues frames whose transfer failed, oldest first. The
	// encoded frame in the queue is the data: it ships whenever the link
	// lets it through, whatever the sender has evicted meanwhile.
	pending []frame
	// sendBase is the sealed tree of the last frame appended to the stream
	// (the chain tail the next delta encodes against; nil forces a full
	// frame); recvBase is the receiver's full-fidelity decode of the last
	// frame delivered (the base the next delta applies onto). Sealed trees
	// are immutable, so holding references is safe.
	sendBase, recvBase *flowtree.Tree
	spill              *disk.SegmentStore // opened on first use
	stats              Stats
}

// New builds a hop; all three Config closures are required.
func New(cfg Config) *Uplink { return &Uplink{cfg: cfg} }

// Export encodes one sealed summary (a delta against the chain tail when
// configured, a full v2 frame otherwise) onto the end of the stream and
// ships everything queued, oldest first. It returns how many frames the
// receiver took. A transient link failure is not an error: undelivered
// frames stay queued for the next Export or Retry.
func (u *Uplink) Export(tree *flowtree.Tree, start time.Time, width time.Duration) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	fr := frame{start: start, width: width}
	if u.cfg.Delta {
		fr.wire, fr.delta = tree.AppendDeltaOrFull(nil, u.sendBase, u.cfg.MaxChurn)
		u.sendBase = tree
	} else {
		fr.wire = tree.AppendBinary(nil)
	}
	u.pending = append(u.pending, fr)
	return u.shipAndCap()
}

// Retry re-ships the queued frames without a new summary.
func (u *Uplink) Retry() (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.shipAndCap()
}

// Pending reports how many frames are queued for re-shipment.
func (u *Uplink) Pending() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.pending)
}

// Stats snapshots the hop's counters.
func (u *Uplink) Stats() Stats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}

// shipAndCap ships the queue, THEN applies the eviction rule to what the
// link left behind. Running the cap after the ship — not before it — is
// deliberate: a frame the rule would evict still ships when this cycle can
// deliver it; only what remains undeliverable is spilled or dropped.
func (u *Uplink) shipAndCap() (int, error) {
	n, err := u.ship()
	u.capPending()
	return n, err
}

// ship transfers the queued frames in order. On a transfer failure the
// failed frame and everything behind it re-queue, order preserved. A frame
// that cannot be read back from disk or decoded at the receiver is dropped
// — a retry would see the same bytes — along with the delta frames chained
// off it, while the frames behind those stay queued.
func (u *Uplink) ship() (int, error) {
	batch := u.pending
	u.pending = nil
	for i, fr := range batch {
		wire := fr.wire
		if fr.spilled {
			var err error
			if wire, err = u.unspill(fr); err != nil {
				u.stats.CorruptSpills++
				u.stats.DroppedEvicted++
				u.pending = u.dropBrokenChain(batch[i+1:])
				return i, fmt.Errorf("uplink %s: read spilled frame: %w", u.cfg.Name, err)
			}
		}
		if err := u.cfg.Transfer(uint64(len(wire))); err != nil {
			u.pending = batch[i:]
			if errors.Is(err, simnet.ErrTransient) {
				return i, nil
			}
			return i, fmt.Errorf("uplink %s: export: %w", u.cfg.Name, err)
		}
		recon, err := flowtree.DecodeDelta(wire, u.recvBase, 0)
		if err == nil {
			if u.cfg.Delta {
				u.recvBase = recon
			}
			err = u.cfg.Deliver(fr.start, fr.width, recon)
		}
		if err != nil {
			// The frame itself was delivered and is not re-queued (it
			// would never decode on a retry either).
			u.pending = u.dropBrokenChain(batch[i+1:])
			return i, fmt.Errorf("uplink %s: decode frame: %w", u.cfg.Name, err)
		}
		u.discardSpill(fr)
	}
	return len(batch), nil
}

// dropBrokenChain drops (counted) the leading delta frames of rest — frames
// chained off a frame that was just dropped, which can therefore never
// decode — clearing the chain tail if nothing survives so the next sealed
// epoch ships full.
func (u *Uplink) dropBrokenChain(rest []frame) []frame {
	j := 0
	for j < len(rest) && rest[j].delta {
		u.discardSpill(rest[j])
		u.stats.DroppedChain++
		j++
	}
	if j == len(rest) {
		u.sendBase = nil
	}
	return rest[j:]
}

// capPending applies Evict to what is still queued, oldest first. Two
// outcomes apply to an evicted frame:
//
//  1. Spill (SpillDir set): the frame moves to the on-disk segment store,
//     the queue keeps a frameless marker, and the next cycle re-ships it
//     from disk — multi-epoch WAN outages then cost disk space, not data.
//     Spilled frames are never evicted again: they cost disk, not memory.
//  2. Drop (no spill tier, or the spill write failed): the frame is dropped
//     and counted. Delta frames chained behind a dropped frame can never
//     decode, so they drop too (counted) until the next full frame; if the
//     chain is still broken at the end of the queue, the chain tail is
//     cleared so the next sealed epoch ships full.
func (u *Uplink) capPending() {
	mem := uint64(0)
	for i := range u.pending {
		mem += uint64(len(u.pending[i].wire))
	}
	kept := u.pending[:0]
	broken := false
	for _, fr := range u.pending {
		switch {
		case broken && fr.delta:
			u.discardSpill(fr)
			u.stats.DroppedEvicted++
		case fr.spilled || !u.cfg.Evict(fr.start, mem):
			kept = append(kept, fr)
			broken = false
		default:
			mem -= uint64(len(fr.wire))
			if u.spillFrame(&fr) {
				kept = append(kept, fr)
				broken = false
				continue
			}
			u.stats.DroppedEvicted++
			broken = true
		}
	}
	if broken {
		u.sendBase = nil
	}
	u.pending = kept
}

// spillStore returns the hop's on-disk spill store, opening it on first
// use; nil without SpillDir or when the open fails (counted).
func (u *Uplink) spillStore() *disk.SegmentStore {
	if u.spill != nil || u.cfg.SpillDir == "" {
		return u.spill
	}
	sp, err := disk.OpenSegmentStore(u.cfg.FS, filepath.Join(u.cfg.SpillDir, u.cfg.Name))
	if err != nil {
		u.stats.SpillErrors++
		return nil
	}
	u.spill = sp
	return sp
}

// spillFrame moves fr's wire bytes into the spill store, marking the queue
// entry frameless on success. A failed spill write is counted and reported
// false — the caller falls back to dropping the frame.
func (u *Uplink) spillFrame(fr *frame) bool {
	sp := u.spillStore()
	if sp == nil {
		return false
	}
	err := sp.Put(storage.Epoch[[]byte]{
		Start: fr.start, Width: fr.width,
		Size: uint64(len(fr.wire)), Payload: fr.wire,
	})
	if err != nil {
		u.stats.SpillErrors++
		return false
	}
	u.stats.SpilledFrames++
	u.stats.SpilledBytes += uint64(len(fr.wire))
	fr.wire = nil
	fr.spilled = true
	return true
}

// unspill reads a spilled frame back, checksum-verified.
func (u *Uplink) unspill(fr frame) ([]byte, error) {
	sp := u.spillStore()
	if sp == nil {
		return nil, errors.New("spill store unavailable")
	}
	wire, ok, err := sp.Get(fr.start)
	if err == nil && !ok {
		err = fmt.Errorf("spilled epoch %v missing from disk", fr.start)
	}
	return wire, err
}

// discardSpill deletes a delivered or dropped frame's on-disk bytes, if it
// has any (best effort: an orphaned segment wastes space, nothing else).
func (u *Uplink) discardSpill(fr frame) {
	if !fr.spilled {
		return
	}
	if sp := u.spillStore(); sp != nil {
		_, _ = sp.Drop(fr.start)
	}
}
