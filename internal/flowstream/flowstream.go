// Package flowstream wires the complete Flowstream system of Figure 5:
// (1) routers send raw flow data to per-site data stores, (2) each store
// aggregates with a Flowtree computing primitive, (3) sealed epoch
// summaries are exported over the (simulated) WAN to a central data store,
// (4) FlowDB stores and indexes them, and (5) applications query the result
// through the FlowQL API. The export hop of step 3 — pending queue, delta
// chain, spill tier, ship and retry — is internal/uplink, one per site; this
// package supplies what is specific to a site-to-central hop: the simnet
// link, the retention-horizon eviction rule and the FlowDB row.
package flowstream

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"megadata/internal/datastore"
	"megadata/internal/flow"
	"megadata/internal/flowdb"
	"megadata/internal/flowql"
	"megadata/internal/flowsource"
	"megadata/internal/flowtree"
	"megadata/internal/primitive"
	"megadata/internal/simnet"
	"megadata/internal/storage/disk"
	"megadata/internal/storage/diskio"
	"megadata/internal/uplink"
)

// Config parameterizes a Flowstream deployment.
type Config struct {
	// Sites are the router/data-store locations (Figure 5 left).
	Sites []string
	// Central is the site hosting FlowDB (defaults to "central").
	Central string
	// TreeBudget is the per-site Flowtree node budget (0 = unlimited).
	TreeBudget int
	// Epoch is the summarization interval.
	Epoch time.Duration
	// Link characterizes every site-to-central link.
	Link simnet.Link
	// Start initializes the virtual clock.
	Start time.Time
	// Shards is the number of concurrent ingest shards per site store:
	// each site's stream is partitioned by flow-key hash across Shards
	// Flowtree instances that are filled in parallel and fanned back
	// together at epoch sealing via Merge (default 1 = serial ingest).
	// The node budget is split evenly across the shards
	// (datastore.ShardBudget), so live memory per site stays that of one
	// budgeted tree; pre-seal attribution coarsens accordingly at high
	// shard counts, while sealed epochs are always one full-budget tree.
	Shards int
	// BatchSize is the number of records IngestBatch hands to a site
	// store per call (default 4096). Larger batches amortize locking and
	// Flowtree compression; smaller batches bound how long records stay
	// invisible to triggers and live queries.
	BatchSize int
	// CentralBudget is the Flowtree node budget applied when decoding
	// site exports at the central FlowDB (0 = full fidelity: central
	// keeps every node the sites shipped). Sites already budget their
	// summaries before export, so a central budget only matters when the
	// center wants to hold coarser trees than it receives.
	CentralBudget int
	// ExportWorkers bounds the epoch-export worker pool: how many sites
	// seal, encode and ship concurrently during EndEpoch (default
	// min(sites, 8); 1 degenerates to the serial per-site export).
	// Export workers are WAN-bound, not CPU-bound, so the default scales
	// with the site count rather than GOMAXPROCS; the cap bounds how
	// many encoded epochs are in flight at once.
	ExportWorkers int
	// RetentionBytes is the per-site round-robin retention budget for
	// sealed epochs (default 64 MiB). It also caps the pending-export
	// queue: a queued epoch that retention has since evicted is dropped
	// from the queue with a counted stat (DroppedExports) instead of
	// being re-shipped as data the site no longer holds.
	RetentionBytes uint64
	// DeltaExports ships each site's sealed epoch as a v3 delta frame
	// against the previous frame in that site's export stream when churn
	// permits (flowtree.AppendDeltaOrFull), cutting WAN bytes on low-churn
	// steady-state traffic. The first epoch, high-churn epochs and
	// chain-break recoveries ship as full v2 frames; central retains a
	// full-fidelity decode per site to apply deltas onto.
	DeltaExports bool
	// DeltaMaxChurn is the churn fraction (changed + removed entries over
	// current entries) above which a delta export falls back to a full
	// frame (default 0.5; negative disables the fallback).
	DeltaMaxChurn float64
	// Source, when non-nil, puts a streaming ingest front end in front of
	// the site stores: New wires the source's sink, partition width and
	// partitioner to the sharded store path (Sink/Parts/Partition in the
	// supplied config are overwritten), so routers can stream framed
	// records (System.ConsumeStream, or Source().Consume directly)
	// instead of materializing record slices. Batch sizing, flush
	// deadline, channel depth and drop-vs-block policy are taken from
	// this config; stats surface through SourceStats.
	Source *flowsource.Config
	// WALDir enables a per-site write-ahead journal on the streaming leg
	// (requires Source): every record is journaled (disk.WALSet) before it
	// enters the site's pending batch, the site's journal truncates when
	// its epoch seals, and Recover on a restarted system replays whatever
	// unsealed records the journals hold. The supplied Source config's
	// Journal hook is overwritten.
	WALDir string
	// WALSyncEvery is the journal fsync interval in records (default 256;
	// <=1 fsyncs on every append — strictest, slowest).
	WALSyncEvery int
	// SpillDir enables disk spill of the pending-export queue: a queued
	// epoch that local retention evicts before the WAN delivers it is
	// spilled (encoded frame and all) to an on-disk segment store
	// (SpillDir/<site>) instead of dropped, and re-ships from disk on the
	// next cycle. The queue entry (epoch start, width, delta flag) stays
	// in process — the spill survives WAN outages, not process restarts.
	SpillDir string
	// DiskFS is the filesystem seam the WAL and spill stores write
	// through (nil = the real filesystem). Tests inject deterministic
	// disk faults here (diskio.NewFaulty).
	DiskFS diskio.FS
}

// aggName is the Flowtree aggregator registered at every site store.
const aggName = "flowtree"

// System is a running Flowstream instance.
type System struct {
	cfg     Config
	Clock   *simnet.Clock
	Net     *simnet.Network
	DB      *flowdb.DB
	stores  map[string]*datastore.Store
	central simnet.SiteID
	epoch   int
	source  *flowsource.Source

	// links is each site's export hop toward central. A queued epoch stays
	// queryable in the site's local retention while its frame waits in the
	// hop's queue; the hop's eviction rule is that retention horizon: a
	// queued epoch retention has since evicted is spilled or dropped.
	links map[string]*uplink.Uplink

	// inbox holds the rows the hops delivered to central for the
	// single-writer InsertBatch of the EndEpoch or ReExportPending that
	// shipped them.
	inbox *uplink.Central

	// wal is the per-site write-ahead journal (Config.WALDir).
	wal           *disk.WALSet
	walSealErrors atomic.Uint64
}

// New builds and connects a Flowstream deployment.
func New(cfg Config) (*System, error) {
	if len(cfg.Sites) == 0 {
		return nil, errors.New("flowstream: need at least one site")
	}
	if cfg.Central == "" {
		cfg.Central = "central"
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = time.Minute
	}
	if cfg.Link.BytesPerSecond <= 0 {
		cfg.Link = simnet.Link{BytesPerSecond: 10e6, Latency: 20 * time.Millisecond}
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 4096
	}
	if cfg.CentralBudget < 0 {
		return nil, errors.New("flowstream: central budget must be >= 0")
	}
	if cfg.ExportWorkers <= 0 {
		cfg.ExportWorkers = min(len(cfg.Sites), 8)
	}
	if cfg.RetentionBytes == 0 {
		cfg.RetentionBytes = 64 << 20
	}
	if cfg.DeltaMaxChurn == 0 {
		cfg.DeltaMaxChurn = 0.5
	}
	s := &System{
		cfg:     cfg,
		Clock:   simnet.NewClock(cfg.Start),
		Net:     simnet.NewNetwork(),
		DB:      flowdb.New(),
		stores:  make(map[string]*datastore.Store, len(cfg.Sites)),
		central: simnet.SiteID(cfg.Central),
		links:   make(map[string]*uplink.Uplink, len(cfg.Sites)),
	}
	s.inbox = uplink.NewCentral(s.DB, cfg.CentralBudget, cfg.DeltaExports)
	s.Net.AddSite(s.central)
	for _, site := range cfg.Sites {
		if site == cfg.Central {
			return nil, fmt.Errorf("flowstream: site %q collides with the central site", site)
		}
		if _, dup := s.stores[site]; dup {
			return nil, fmt.Errorf("flowstream: duplicate site %q", site)
		}
		store := datastore.New(site, s.Clock.Now, datastore.WithShards(cfg.Shards))
		budget := cfg.TreeBudget
		// Each shard gets an equal slice of the node budget: the live
		// memory envelope stays that of one budgeted tree regardless of
		// shard count, per-shard trees stay small and cache-resident,
		// and the sealing merge fans the slices back into one
		// full-budget tree — the paper's "A12 = compress(A1 ∪ A2)"
		// construction.
		shardBudget := datastore.ShardBudget(budget, cfg.Shards)
		err := store.Register(datastore.AggregatorConfig{
			Name: aggName,
			New: func() (primitive.Aggregator, error) {
				return primitive.NewFlowtree(aggName, budget)
			},
			NewShard: func() (primitive.Aggregator, error) {
				return primitive.NewFlowtree(aggName, shardBudget)
			},
			Strategy:    datastore.StrategyRoundRobin,
			BudgetBytes: cfg.RetentionBytes,
			EpochWidth:  cfg.Epoch,
		})
		if err != nil {
			return nil, fmt.Errorf("flowstream: site %q: %w", site, err)
		}
		if err := store.Subscribe("router", aggName); err != nil {
			return nil, err
		}
		s.stores[site] = store
		s.Net.AddSite(simnet.SiteID(site))
		if err := s.Net.Connect(simnet.SiteID(site), s.central, cfg.Link); err != nil {
			return nil, err
		}
		s.links[site] = uplink.New(uplink.Config{
			Name:     site,
			Delta:    cfg.DeltaExports,
			MaxChurn: cfg.DeltaMaxChurn,
			SpillDir: cfg.SpillDir,
			FS:       cfg.DiskFS,
			Transfer: func(n uint64) error {
				_, err := s.Net.Transfer(simnet.SiteID(site), s.central, n)
				return err
			},
			Deliver: func(start time.Time, width time.Duration, tree *flowtree.Tree) error {
				return s.inbox.Deliver(site, start, width, tree)
			},
			Evict: func(start time.Time, _ uint64) bool {
				return !store.RetainsEpoch(aggName, start)
			},
		})
	}
	if cfg.WALDir != "" {
		if cfg.Source == nil {
			return nil, errors.New("flowstream: WALDir requires a streaming source")
		}
		if cfg.WALSyncEvery == 0 {
			cfg.WALSyncEvery = 256
		}
		wal, err := disk.OpenWALSet(cfg.DiskFS, cfg.WALDir, cfg.WALSyncEvery)
		if err != nil {
			return nil, fmt.Errorf("flowstream: open wal: %w", err)
		}
		s.wal = wal
	}
	if cfg.Source != nil {
		// The source delivers pre-partitioned batches straight into the
		// sharded store path: partition width and partitioner come from
		// the site store, the sink is the no-global-slice streaming entry.
		scfg := *cfg.Source
		if scfg.MaxBatch <= 0 {
			scfg.MaxBatch = cfg.BatchSize
		}
		scfg.Parts = func(site string) int {
			if st, ok := s.stores[site]; ok {
				return st.Shards()
			}
			return 1
		}
		scfg.Partition = func(r flow.Record, _ int) int {
			// All site stores share one shard count; FlowShard is the
			// canonical partitioner.
			return s.stores[cfg.Sites[0]].FlowShard(r)
		}
		scfg.Sink = func(site string, parts [][]flow.Record) error {
			st, ok := s.stores[site]
			if !ok {
				return fmt.Errorf("flowstream: unknown site %q", site)
			}
			return st.IngestFlowParts("router", parts)
		}
		if s.wal != nil {
			// Write-ahead: records hit the site journal before they
			// become visible to the pipeline; journal failures are
			// counted (Stats.JournalErrors), never block ingest.
			scfg.Journal = s.wal.Append
		}
		src, err := flowsource.New(scfg)
		if err != nil {
			return nil, err
		}
		s.source = src
	}
	return s, nil
}

// Source returns the streaming ingest front end, or nil when the system
// was built without Config.Source.
func (s *System) Source() *flowsource.Source { return s.source }

// ConsumeStream decodes framed flow records from r into a site's store
// through the streaming source (Config.Source must be set), blocking until
// the stream ends. One goroutine per router connection is the intended
// shape; backpressure or drop policy applies per Config.Source.
func (s *System) ConsumeStream(site string, r io.Reader) error {
	if s.source == nil {
		return errors.New("flowstream: no streaming source configured")
	}
	if _, ok := s.stores[site]; !ok {
		return fmt.Errorf("flowstream: unknown site %q", site)
	}
	return s.source.Consume(site, r)
}

// DrainSource flushes and waits out all in-flight streamed batches, so a
// following EndEpoch seals every record the routers sent. No-op without a
// configured source.
func (s *System) DrainSource() error {
	if s.source == nil {
		return nil
	}
	return s.source.Drain()
}

// SourceStats snapshots the streaming front end's counters (zero without a
// configured source).
func (s *System) SourceStats() flowsource.Stats {
	if s.source == nil {
		return flowsource.Stats{}
	}
	return s.source.Stats()
}

// Store returns a site's data store (installing triggers, diagnostics).
func (s *System) Store(site string) (*datastore.Store, error) {
	st, ok := s.stores[site]
	if !ok {
		return nil, fmt.Errorf("flowstream: unknown site %q", site)
	}
	return st, nil
}

// Ingest pushes router flow records into a site's data store (Figure 5
// steps 1-2). It delegates to IngestBatch, so it benefits from the sharded
// batch path; callers that want record-at-a-time semantics can use the
// site store's Ingest directly.
func (s *System) Ingest(site string, recs []flow.Record) error {
	return s.IngestBatch(site, recs)
}

// IngestBatch pushes router flow records into a site's data store in
// chunks of Config.BatchSize. Each chunk is partitioned by flow-key hash
// across the store's shards and applied concurrently through the store's
// typed (unboxed) batch path, which amortizes locking, Flowtree aggregate
// propagation (deferred to one bottom-up rebuild per chunk) and budget
// compression (one bulk sort-fold per chunk) over the whole chunk — the
// sharded fast path of Figure 5 steps 1-2.
func (s *System) IngestBatch(site string, recs []flow.Record) error {
	st, err := s.Store(site)
	if err != nil {
		return err
	}
	batch := s.cfg.BatchSize
	for len(recs) > 0 {
		n := min(batch, len(recs))
		if err := st.IngestFlowBatch("router", recs[:n]); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// EndEpoch closes the current epoch everywhere as a concurrent pipeline:
// every site independently seals its Flowtree (merging its ingest shards
// into one budgeted summary, off the store's registry lock), encodes it in
// the compact v2 wire format and ships it to the central site over the
// metered WAN (step 3) through a bounded worker pool, so multi-site epoch
// turnaround is bounded by the slowest site instead of the sum of all
// sites. Decoded central trees are handed to a single writer that batches
// them into FlowDB (step 4) with one InsertBatch. The virtual clock
// advances by one epoch before sealing.
//
// A transient WAN failure (simnet.ErrTransient) is not an error: the
// sealed epoch is already queryable in the site's local retention, its
// encoded blob queues in the site's pending-export queue, and the next
// EndEpoch (or an explicit ReExportPending) re-ships it, oldest first.
// Only seal, decode, insert and topology failures surface as errors.
func (s *System) EndEpoch() error {
	// With a streaming front end, flush and wait out in-flight batches
	// first: the seal must cover every record the routers sent this epoch.
	if err := s.DrainSource(); err != nil {
		return fmt.Errorf("flowstream: drain streaming source: %w", err)
	}
	epochStart := s.cfg.Start.Add(time.Duration(s.epoch) * s.cfg.Epoch)
	s.Clock.AdvanceTo(epochStart.Add(s.cfg.Epoch))
	var wg sync.WaitGroup
	errs := make([]error, len(s.cfg.Sites))
	sem := make(chan struct{}, s.cfg.ExportWorkers)
	for i, site := range s.cfg.Sites {
		wg.Add(1)
		go func(i int, site string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = s.exportSite(site, epochStart)
		}(i, site)
	}
	wg.Wait()
	// Every site has sealed and the clock has moved, so the epoch index
	// advances even when a site's export failed: the next epoch must not be
	// stamped with this one's start.
	s.epoch++
	// Single writer: all decoded rows land in FlowDB under one lock
	// acquisition, appended to their per-location segments.
	if err := s.inbox.Flush(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// exportSite runs one site's seal -> encode -> ship stage of the epoch
// pipeline. Epochs still pending from earlier failures ship first,
// preserving per-site order; delivered rows wait in the inbox for the caller.
func (s *System) exportSite(site string, epochStart time.Time) error {
	// SealExport merges the site's shards into one budgeted summary
	// exactly once — off the registry lock, so ingest keeps flowing —
	// moving it into retention and handing it back for the WAN export.
	sealed, err := s.stores[site].SealExport(aggName)
	if err != nil {
		return err
	}
	if s.wal != nil {
		// Epoch-seal truncation: every record the journal holds for this
		// site is now captured in the sealed summary, so the journal's job
		// for the epoch is done. A failed truncation is counted, not
		// fatal: the sealed frame still ships, at the cost that a crash
		// before the next successful seal would replay the stale journal
		// on top of the recovered epoch (DiskStats.WALSealErrors is the
		// operator's signal).
		if err := s.wal.Seal(site); err != nil {
			s.walSealErrors.Add(1)
		}
	}
	ft, ok := sealed.(*primitive.FlowtreeAggregator)
	if !ok {
		return fmt.Errorf("flowstream: site %q aggregator is %T", site, sealed)
	}
	_, err = s.links[site].Export(ft.Tree(), epochStart, s.cfg.Epoch)
	return err
}

// linkStats sums the export hops' counters over all sites.
func (s *System) linkStats() uplink.Stats {
	var st uplink.Stats
	for _, l := range s.links {
		st.Add(l.Stats())
	}
	return st
}

// DroppedExports reports how many queued epochs were dropped from the
// re-ship queues: evicted by local retention before they could be delivered
// (the honest alternative to re-shipping data the site no longer holds),
// unreadable in the spill tier, or chained as deltas behind such a frame.
func (s *System) DroppedExports() int {
	st := s.linkStats()
	return int(st.DroppedChain + st.DroppedEvicted)
}

// PendingExports reports how many sealed epochs are queued for re-shipment
// across all sites (0 when every export has reached central FlowDB).
func (s *System) PendingExports() int {
	n := 0
	for _, l := range s.links {
		n += l.Pending()
	}
	return n
}

// ReExportPending re-ships every queued epoch from local retention to the
// central FlowDB without waiting for the next EndEpoch, returning how many
// epochs were delivered. Epochs that fail again (transiently) stay queued.
func (s *System) ReExportPending() (int, error) {
	delivered := 0
	var firstErr error
	for _, site := range s.cfg.Sites {
		n, err := s.links[site].Retry()
		delivered += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.inbox.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return delivered, firstErr
}

// RecoverStats reports what a crash recovery replayed.
type RecoverStats struct {
	// Records is the number of journaled records re-ingested.
	Records int
	// Truncated counts codec resynchronizations absorbed during replay —
	// torn tails from a crash mid-append.
	Truncated uint64
}

// Recover replays every site journal under Config.WALDir into the site
// stores — the restart path after a crash. A site that died mid-epoch left
// its unsealed records in its journal (appends run before ingest, seals
// truncate), so replaying the journals reconstructs exactly the open epoch
// the crash interrupted: after Recover, ingest resumes and the next
// EndEpoch seals a summary identical to what an uninterrupted run would
// have produced. Call it once, before any new ingest; records are
// re-ingested directly (not re-journaled — the journal still holds them,
// so a second crash before the next seal still replays them exactly once).
func (s *System) Recover() (RecoverStats, error) {
	if s.wal == nil {
		return RecoverStats{}, errors.New("flowstream: no WAL configured")
	}
	var buf []flow.Record
	cur := ""
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, ok := s.stores[cur]; !ok {
			return fmt.Errorf("flowstream: journal for unknown site %q", cur)
		}
		err := s.IngestBatch(cur, buf)
		buf = buf[:0]
		return err
	}
	n, torn, err := s.wal.Replay(func(site string, rec flow.Record) error {
		if site != cur {
			if err := flush(); err != nil {
				return err
			}
			cur = site
		}
		buf = append(buf, rec)
		if len(buf) >= s.cfg.BatchSize {
			return flush()
		}
		return nil
	})
	if ferr := flush(); err == nil {
		err = ferr
	}
	return RecoverStats{Records: n, Truncated: torn}, err
}

// DiskStats counts the durable tier's activity and the failures it
// absorbed.
type DiskStats struct {
	// WALRecords is the number of records journaled by this process.
	WALRecords uint64
	// WALSealErrors counts epoch-seal journal truncations that failed:
	// the export proceeded, but a crash before the next successful seal
	// would replay the stale journal on top of the recovered epoch.
	WALSealErrors uint64
	// SpilledEpochs / SpilledBytes count pending exports moved to the
	// on-disk spill tier instead of being dropped at retention eviction.
	SpilledEpochs uint64
	SpilledBytes  uint64
	// SpillErrors counts failed spill opens/writes (the epoch was dropped
	// instead, showing up in DroppedExports).
	SpillErrors uint64
	// CorruptSpills counts spilled frames that failed checksum
	// verification or went missing at re-ship time (dropped, counted in
	// DroppedExports — corrupt bytes are never decoded or shipped).
	CorruptSpills uint64
}

// DiskStats snapshots the durable tier's counters.
func (s *System) DiskStats() DiskStats {
	ls := s.linkStats()
	st := DiskStats{
		WALSealErrors: s.walSealErrors.Load(),
		SpilledEpochs: ls.SpilledFrames,
		SpilledBytes:  ls.SpilledBytes,
		SpillErrors:   ls.SpillErrors,
		CorruptSpills: ls.CorruptSpills,
	}
	if s.wal != nil {
		st.WALRecords = s.wal.Records()
	}
	return st
}

// CloseDisk releases the journal file handles (journal content stays on
// disk for a successor's Recover). The spill stores hold no persistent
// handles. Safe without a WAL; call after the source is closed/drained.
func (s *System) CloseDisk() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// Epoch returns the index of the current (open) epoch.
func (s *System) Epoch() int { return s.epoch }

// Query answers a FlowQL statement against the central FlowDB (step 5).
func (s *System) Query(statement string) (*flowql.Result, error) {
	return flowql.Run(s.DB, statement)
}

// Subscribe registers a standing FlowQL query against the central FlowDB:
// the result is maintained incrementally as epochs land (one delta merge
// per EndEpoch per subscription, instead of a re-merge per poll) and each
// content-changing epoch pushes a Notification with the re-evaluated
// operator and any fired alerts. Close the subscription to detach it.
func (s *System) Subscribe(statement string, cfg flowql.SubConfig) (*flowql.Subscription, error) {
	return flowql.Subscribe(s.DB, statement, cfg)
}

// WANBytes reports the bytes shipped to the central site so far.
func (s *System) WANBytes() uint64 {
	return s.Net.TotalStats().Bytes
}
