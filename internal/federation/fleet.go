// fleet.go implements the scale-out export side of the federation: a
// multi-level tree of sites (leaf -> regional aggregator -> central) where
// every hop is the same internal/uplink export hop as the flat flowstream
// path, driven level by level through a bounded worker pool. Each node
// seals its open-epoch Flowtree, re-compresses to its own node budget and
// hands the summary to its uplink, which encodes it (full v2 or v3 delta
// frame), ships it one hop up over the metered simnet WAN and queues,
// spills or drops what the link leaves behind. This file supplies what is
// specific to a fleet hop: the queue-byte eviction rule and the receiving
// end — an aggregator merges a delivered summary into its open epoch, the
// central site indexes it in a FlowDB.
package federation

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowdb"
	"megadata/internal/flowql"
	"megadata/internal/flowtree"
	"megadata/internal/simnet"
	"megadata/internal/storage/diskio"
	"megadata/internal/uplink"
)

// FleetConfig parameterizes a multi-level export fleet.
type FleetConfig struct {
	// Fanout is the tree shape, root first: Fanout[0] children under the
	// central site, Fanout[1] children under each of those, and so on.
	// The deepest level's nodes are the ingesting leaves. len(Fanout)==1
	// is the flat site->central topology; len(Fanout)==2 inserts one
	// aggregator tier.
	Fanout []int
	// Central names the root site (default "central").
	Central string
	// Epoch is the summarization interval (default time.Minute).
	Epoch time.Duration
	// Start initializes the virtual clock.
	Start time.Time
	// LeafBudget caps each leaf's live Flowtree (0 = unlimited).
	LeafBudget int
	// AggBudget is the node budget every aggregator re-compresses its
	// accumulated level summary to before shipping upward (0 = ship what
	// arrived). Accumulation itself runs unbudgeted and compresses once
	// at seal, so the sealed tree depends only on the set of delivered
	// child frames, not on their arrival order — what keeps concurrent
	// rollups deterministic.
	AggBudget int
	// CentralBudget coarsens rows at the central FlowDB (0 = full
	// fidelity).
	CentralBudget int
	// ExportWorkers bounds each level's export worker pool (default
	// min(level width, 8)).
	ExportWorkers int
	// DeltaExports ships v3 delta frames on every hop when churn permits
	// (flowtree.AppendDeltaOrFull); receivers retain a per-child
	// full-fidelity decode to apply the next delta onto.
	DeltaExports bool
	// DeltaMaxChurn is the full-frame fallback threshold (default 0.5;
	// negative disables the fallback).
	DeltaMaxChurn float64
	// Link is the uniform link profile for every hop (default 10 MB/s,
	// 20 ms) used when Plan is empty.
	Link simnet.Link
	// Plan, when non-empty, assigns heterogeneous per-link profiles
	// deterministically from its seed (simnet.LinkPlan).
	Plan simnet.LinkPlan
	// QueueBytes caps the in-memory frame bytes each node may hold on its
	// uplink queue (0 = unbounded). When a ship attempt leaves the queue
	// over the cap, the oldest frames are evicted until it fits: spilled
	// to the node's on-disk segment store when SpillDir is set, dropped
	// and counted in DroppedExports otherwise.
	QueueBytes uint64
	// SpillDir keeps queue-evicted frames on disk (one segment store per
	// node under this directory) instead of dropping them, so multi-epoch
	// WAN outages cost disk space, not data.
	SpillDir string
	// FS overrides the filesystem spills go through (fault injection);
	// nil means the real OS.
	FS diskio.FS
}

// FleetNode is one site of the export tree.
type FleetNode struct {
	ID       simnet.SiteID
	Depth    int // 0 = central
	Parent   *FleetNode
	Children []*FleetNode

	// liveMu guards live, the node's open-epoch Flowtree: leaf ingest
	// lands here; at aggregators it accumulates the child frames decoded
	// since the node last sealed.
	liveMu sync.Mutex
	live   *flowtree.Tree

	// up is the node's export hop toward its parent (nil at the root).
	up *uplink.Uplink
}

// Fleet is a running multi-level export federation.
type Fleet struct {
	cfg   FleetConfig
	Clock *simnet.Clock
	Net   *simnet.Network
	// DB indexes every top-level frame delivered to the central site, one
	// row per (aggregator, epoch) — or per (leaf, epoch) on the flat
	// topology.
	DB   *flowdb.DB
	Root *FleetNode

	// inbox holds the rows top-level hops delivered to the root until the
	// EndEpoch, ReExportPending or Drain round that shipped them ends: one
	// InsertBatch per round, however many uplinks delivered concurrently.
	inbox *uplink.Central

	levels [][]*FleetNode // levels[d] = nodes at depth d, construction order
	nodes  map[simnet.SiteID]*FleetNode
	epoch  int
}

// NewFleet builds and connects a multi-level export fleet.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Fanout) == 0 {
		return nil, errors.New("federation: fleet needs at least one fanout level")
	}
	for _, n := range cfg.Fanout {
		if n <= 0 {
			return nil, errors.New("federation: fanout entries must be positive")
		}
	}
	if cfg.Central == "" {
		cfg.Central = "central"
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = time.Minute
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.Link.BytesPerSecond <= 0 {
		cfg.Link = simnet.Link{BytesPerSecond: 10e6, Latency: 20 * time.Millisecond}
	}
	if cfg.DeltaMaxChurn == 0 {
		cfg.DeltaMaxChurn = 0.5
	}
	fl := &Fleet{
		cfg:   cfg,
		Clock: simnet.NewClock(cfg.Start),
		Net:   simnet.NewNetwork(),
		DB:    flowdb.New(),
		nodes: make(map[simnet.SiteID]*FleetNode),
	}
	fl.inbox = uplink.NewCentral(fl.DB, cfg.CentralBudget, cfg.DeltaExports)
	fl.Root = &FleetNode{ID: simnet.SiteID(cfg.Central)}
	fl.nodes[fl.Root.ID] = fl.Root
	fl.Net.AddSite(fl.Root.ID)
	fl.levels = append(fl.levels, []*FleetNode{fl.Root})
	var build func(parent *FleetNode, depth int) error
	build = func(parent *FleetNode, depth int) error {
		leaf := depth == len(cfg.Fanout)
		for i := 0; i < cfg.Fanout[depth-1]; i++ {
			id := simnet.SiteID(fmt.Sprintf("n%d", i))
			if parent != fl.Root {
				id = simnet.SiteID(fmt.Sprintf("%s.%d", parent.ID, i))
			}
			budget := 0
			if leaf {
				budget = cfg.LeafBudget
			}
			live, err := flowtree.New(budget)
			if err != nil {
				return err
			}
			n := &FleetNode{ID: id, Depth: depth, Parent: parent, live: live}
			parent.Children = append(parent.Children, n)
			fl.nodes[id] = n
			fl.Net.AddSite(id)
			link := cfg.Link
			if planned, ok := cfg.Plan.For(id, parent.ID); ok {
				link = planned
			}
			if err := fl.Net.Connect(id, parent.ID, link); err != nil {
				return err
			}
			n.up = uplink.New(uplink.Config{
				Name:     string(id),
				Delta:    cfg.DeltaExports,
				MaxChurn: cfg.DeltaMaxChurn,
				SpillDir: cfg.SpillDir,
				FS:       cfg.FS,
				Transfer: func(b uint64) error {
					_, err := fl.Net.Transfer(id, parent.ID, b)
					return err
				},
				Deliver: func(start time.Time, width time.Duration, tree *flowtree.Tree) error {
					return fl.deliver(parent, id, start, width, tree)
				},
				// Only in-memory wire bytes count against the cap: oldest
				// frames are evicted until the rest fits.
				Evict: func(_ time.Time, queuedBytes uint64) bool {
					return cfg.QueueBytes > 0 && queuedBytes > cfg.QueueBytes
				},
			})
			if len(fl.levels) == depth {
				fl.levels = append(fl.levels, nil)
			}
			fl.levels[depth] = append(fl.levels[depth], n)
			if !leaf {
				if err := build(n, depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := build(fl.Root, 1); err != nil {
		return nil, err
	}
	return fl, nil
}

// Leaves returns the ingesting leaf nodes in construction order.
func (fl *Fleet) Leaves() []*FleetNode {
	return fl.levels[len(fl.levels)-1]
}

// Node resolves a site id.
func (fl *Fleet) Node(id simnet.SiteID) (*FleetNode, bool) {
	n, ok := fl.nodes[id]
	return n, ok
}

// Epoch returns the index of the current (open) epoch.
func (fl *Fleet) Epoch() int { return fl.epoch }

// Ingest adds router flow records at a leaf's open-epoch tree. Safe for
// concurrent use, including concurrently with EndEpoch: ingest racing a
// seal lands in one epoch or the next, never lost.
func (fl *Fleet) Ingest(leaf simnet.SiteID, recs []flow.Record) error {
	n, ok := fl.nodes[leaf]
	if !ok {
		return fmt.Errorf("federation: unknown fleet site %q", leaf)
	}
	if len(n.Children) > 0 || n == fl.Root {
		return fmt.Errorf("federation: %q is not a leaf", leaf)
	}
	n.liveMu.Lock()
	defer n.liveMu.Unlock()
	n.live.AddBatch(recs)
	return nil
}

// EndEpoch closes the current epoch fleet-wide: level by level from the
// leaves up, every node seals, encodes and ships its summary one hop
// through a bounded worker pool, with a barrier between levels so each
// aggregator's seal covers everything its children delivered this epoch.
// Transient link failures are not errors — the frame queues on the sender
// and re-ships next epoch (or via ReExportPending), in stream order.
// Per-node errors within a level are aggregated; the rest of the level and
// the levels above still run. Whatever reached the root lands in the FlowDB
// as one batch at the end, so standing views see one generation per epoch.
func (fl *Fleet) EndEpoch() error {
	epochStart := fl.cfg.Start.Add(time.Duration(fl.epoch) * fl.cfg.Epoch)
	fl.Clock.AdvanceTo(epochStart.Add(fl.cfg.Epoch))
	var errs []error
	for d := len(fl.levels) - 1; d >= 1; d-- {
		level := fl.levels[d]
		workers := fl.cfg.ExportWorkers
		if workers <= 0 {
			workers = min(len(level), 8)
		}
		var (
			mu  sync.Mutex
			wg  sync.WaitGroup
			sem = make(chan struct{}, workers)
		)
		for _, n := range level {
			wg.Add(1)
			go func(n *FleetNode) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if err := fl.exportNode(n, epochStart); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}(n)
		}
		wg.Wait() // barrier: parents seal only after the whole level shipped
	}
	fl.epoch++
	if err := fl.inbox.Flush(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// seal swaps a node's open-epoch tree for a fresh one and returns the
// sealed summary, re-compressed to the aggregator budget for non-leaves.
// The sealed tree is immutable from here on (it may be retained as a delta
// base).
func (fl *Fleet) seal(n *FleetNode) (*flowtree.Tree, error) {
	budget := 0
	if len(n.Children) == 0 {
		budget = fl.cfg.LeafBudget
	}
	fresh, err := flowtree.New(budget)
	if err != nil {
		return nil, err
	}
	n.liveMu.Lock()
	sealed := n.live
	n.live = fresh
	n.liveMu.Unlock()
	if len(n.Children) > 0 && fl.cfg.AggBudget > 0 {
		sealed.CompressTo(fl.cfg.AggBudget)
	}
	return sealed, nil
}

// exportNode runs one node's seal -> encode -> ship hop. Frames still
// pending from earlier failures ship first, preserving uplink stream order.
func (fl *Fleet) exportNode(n *FleetNode, epochStart time.Time) error {
	sealed, err := fl.seal(n)
	if err != nil {
		return err
	}
	_, err = n.up.Export(sealed, epochStart, fl.cfg.Epoch)
	return err
}

// deliver is every hop's receiving end: an aggregator merges the decoded
// summary into its open-epoch accumulation; the central site parks it as a
// FlowDB row for the round's single InsertBatch.
func (fl *Fleet) deliver(parent *FleetNode, child simnet.SiteID, start time.Time, width time.Duration, tree *flowtree.Tree) error {
	if parent == fl.Root {
		return fl.inbox.Deliver(string(child), start, width, tree)
	}
	parent.liveMu.Lock()
	defer parent.liveMu.Unlock()
	return parent.live.Merge(tree)
}

// hops visits every uplink, deepest level first.
func (fl *Fleet) hops(visit func(*uplink.Uplink)) {
	for d := len(fl.levels) - 1; d >= 1; d-- {
		for _, n := range fl.levels[d] {
			visit(n.up)
		}
	}
}

// hopStats sums the uplinks' counters fleet-wide.
func (fl *Fleet) hopStats() uplink.Stats {
	var st uplink.Stats
	fl.hops(func(u *uplink.Uplink) { st.Add(u.Stats()) })
	return st
}

// PendingExports counts frames queued on uplinks fleet-wide.
func (fl *Fleet) PendingExports() int {
	total := 0
	fl.hops(func(u *uplink.Uplink) { total += u.Pending() })
	return total
}

// DroppedFrames counts frames dropped for chain integrity (deltas behind
// an undecodable frame).
func (fl *Fleet) DroppedFrames() int { return int(fl.hopStats().DroppedChain) }

// DroppedExports counts queued frames lost to the uplink queue cap: evicted
// with no spill tier (or a failed spill write), unreadable when re-shipped
// from disk, or chained behind either. Zero means every sealed epoch the
// fleet produced was — or still can be — delivered.
func (fl *Fleet) DroppedExports() int { return int(fl.hopStats().DroppedEvicted) }

// FleetDiskStats reports the spill tier's counters.
type FleetDiskStats struct {
	// SpilledFrames and SpilledBytes count queue-evicted frames written to
	// the spill stores (cumulative, not currently resident).
	SpilledFrames uint64
	SpilledBytes  uint64
	// SpillErrors counts failed spill-store opens and writes (each falls
	// back to dropping the frame).
	SpillErrors uint64
	// CorruptSpills counts spilled frames that failed checksum or went
	// missing when read back for re-shipment.
	CorruptSpills uint64
}

// DiskStats snapshots the spill tier's counters.
func (fl *Fleet) DiskStats() FleetDiskStats {
	st := fl.hopStats()
	return FleetDiskStats{
		SpilledFrames: st.SpilledFrames,
		SpilledBytes:  st.SpilledBytes,
		SpillErrors:   st.SpillErrors,
		CorruptSpills: st.CorruptSpills,
	}
}

// WANBytes reports the bytes moved across all hops so far.
func (fl *Fleet) WANBytes() uint64 { return fl.Net.TotalStats().Bytes }

// ReExportPending re-ships queued frames at every hop, deepest level
// first so freed data can continue upward within one call. Returns how
// many frames were delivered; transient re-failures keep their frames
// queued without error.
func (fl *Fleet) ReExportPending() (int, error) {
	delivered := 0
	var errs []error
	fl.hops(func(u *uplink.Uplink) {
		got, err := u.Retry()
		delivered += got
		if err != nil {
			errs = append(errs, err)
		}
	})
	if err := fl.inbox.Flush(); err != nil {
		errs = append(errs, err)
	}
	return delivered, errors.Join(errs...)
}

// Drain pushes every queued frame and every aggregator-held accumulation
// through to central, looping ReExportPending and flushing non-empty
// aggregator trees (late child frames merged after the aggregator's last
// seal) until the fleet is quiescent or maxRounds passes elapse. It
// returns an error when frames are still stranded after maxRounds — which
// with FailEvery-style links means a permanently dead hop.
func (fl *Fleet) Drain(maxRounds int) error {
	if maxRounds <= 0 {
		maxRounds = 64
	}
	epochStart := fl.cfg.Start.Add(time.Duration(fl.epoch) * fl.cfg.Epoch)
	for round := 0; round < maxRounds; round++ {
		if _, err := fl.ReExportPending(); err != nil {
			return err
		}
		flushed, err := fl.exportStragglers(epochStart)
		// What the round delivered is indexed even when a node failed.
		if err = errors.Join(err, fl.inbox.Flush()); err != nil {
			return err
		}
		if flushed == 0 && fl.PendingExports() == 0 {
			return nil
		}
	}
	return fmt.Errorf("federation: drain incomplete after %d rounds: %d frames pending", maxRounds, fl.PendingExports())
}

// exportStragglers flushes straggler accumulations bottom-up: an aggregator
// holding late-delivered child data seals and ships an amendment frame. It
// returns how many did.
func (fl *Fleet) exportStragglers(epochStart time.Time) (int, error) {
	flushed := 0
	for d := len(fl.levels) - 2; d >= 1; d-- {
		for _, n := range fl.levels[d] {
			n.liveMu.Lock()
			empty := n.live.Total().IsZero()
			n.liveMu.Unlock()
			if empty {
				continue
			}
			if err := fl.exportNode(n, epochStart); err != nil {
				return flushed, err
			}
			flushed++
		}
	}
	return flushed, nil
}

// CentralTree merges every row delivered to central into one tree — the
// fleet-wide mega-dataset view queries run against.
func (fl *Fleet) CentralTree() (*flowtree.Tree, error) {
	t, _, err := fl.DB.Select(nil, time.Time{}, time.Unix(1<<62, 0))
	return t, err
}

// Subscribe registers a standing FlowQL query against the central FlowDB.
// The fleet-wide result is maintained incrementally as top-level frames
// land — each EndEpoch (or Drain round) that delivers content folds only
// the delivered deltas into the subscription's view and pushes a
// Notification with the re-evaluated operator and any fired alerts, so
// dashboards over the federation never re-merge the mega-dataset per poll.
func (fl *Fleet) Subscribe(statement string, cfg flowql.SubConfig) (*flowql.Subscription, error) {
	return flowql.Subscribe(fl.DB, statement, cfg)
}
