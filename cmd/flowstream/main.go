// Command flowstream runs the Figure 5 pipeline end to end on synthetic
// traffic and reports per-stage volumes: raw flows at the routers, Flowtree
// summary sizes at the data stores, WAN export bytes, FlowDB contents, and
// a sample of FlowQL answers.
//
// # Batch mode (default)
//
// Each epoch's records are generated as one slice per site and pushed
// through the sharded batch ingest path (IngestBatch), the shape PR 1-4
// measured.
//
// # Streaming mode (-stream)
//
// With -stream the routers never materialize an epoch: a simnet-paced
// generator writes length-prefixed record frames into a pipe per site, and
// the flowsource streaming front end decodes them, coalesces size- or
// deadline-bounded batches (-batch doubles as the streaming MaxBatch),
// pre-partitions them into the store's shard layout and delivers them over
// a bounded channel with backpressure — the router→store leg of Figure 5 as
// a continuous stream. -drop switches the full-channel policy from
// backpressure to counted load-shedding. The summary line reports the
// source's counters (frames, batches, dropped, truncated, peak queued
// records).
//
// # Durable storage (-wal, -spill-dir)
//
// -wal DIR journals every streamed record to a per-site write-ahead log
// before it enters the store (truncated when the epoch seals), so a
// crashed site replays its open epoch on restart; -wal-sync tunes the
// fsync cadence. -spill-dir DIR parks retention-evicted pending exports
// in per-site on-disk segment stores instead of dropping them, so
// multi-epoch WAN outages cost disk instead of data. Both print the
// durable tier's counters in the summary.
//
// Run WAL'd ingest with GOMAXPROCS >= 2: on a single proc every fsync
// strands the scheduler in the syscall and its full latency lands on the
// ingest critical path, where a second proc lets it overlap (see
// BenchmarkWALIngest in internal/flowstream).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"megadata/internal/flowql"
	"megadata/internal/flowsource"
	"megadata/internal/flowstream"
	"megadata/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		sites    = flag.Int("sites", 3, "number of router sites")
		epochs   = flag.Int("epochs", 5, "number of one-minute epochs")
		flows    = flag.Int("flows", 20000, "flow records per site per epoch")
		budget   = flag.Int("budget", 4096, "Flowtree node budget per site (0 = unlimited)")
		shards   = flag.Int("shards", 1, "concurrent ingest shards per site store (1 = serial)")
		batch    = flag.Int("batch", 4096, "records per ingest batch (streaming: MaxBatch)")
		skew     = flag.Float64("skew", 1.2, "traffic Zipf skew")
		stream   = flag.Bool("stream", false, "stream framed records through flowsource instead of materialized slices")
		drop     = flag.Bool("drop", false, "streaming: drop batches at a full channel instead of backpressuring")
		queries  = flag.Bool("queries", true, "run sample FlowQL queries at the end")
		wal      = flag.String("wal", "", "streaming: journal ingested records to per-site write-ahead logs in this directory (crash recovery)")
		walSync  = flag.Int("wal-sync", 256, "fsync the journal every N records (<=1: every append)")
		spillDir = flag.String("spill-dir", "", "spill retention-evicted pending exports to per-site segment stores in this directory instead of dropping them")
	)
	flag.Parse()
	if *wal != "" && !*stream {
		return fmt.Errorf("-wal journals the streaming ingest leg; combine it with -stream")
	}

	names := make([]string, *sites)
	for i := range names {
		names[i] = fmt.Sprintf("site%d", i)
	}
	cfg := flowstream.Config{
		Sites:      names,
		TreeBudget: *budget,
		Epoch:      time.Minute,
		Shards:     *shards,
		BatchSize:  *batch,
	}
	if *stream {
		policy := flowsource.PolicyBlock
		if *drop {
			policy = flowsource.PolicyDrop
		}
		cfg.Source = &flowsource.Config{MaxBatch: *batch, Policy: policy}
		cfg.WALDir = *wal
		cfg.WALSyncEvery = *walSync
	}
	cfg.SpillDir = *spillDir
	sys, err := flowstream.New(cfg)
	if err != nil {
		return err
	}

	var rawBytes uint64
	startWall := time.Now()
	if *stream {
		rawBytes, err = runStreaming(sys, names, *epochs, *flows, *skew)
	} else {
		rawBytes, err = runBatched(sys, names, *epochs, *flows, *skew)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(startWall)

	total := *sites * *epochs * *flows
	mode := "batched"
	if *stream {
		mode = "streaming"
	}
	fmt.Printf("flowstream: %d sites x %d epochs x %d flows = %d records in %v (%.0f flows/s, %s, %d shards, batch %d)\n",
		*sites, *epochs, *flows, total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), mode, *shards, *batch)
	fmt.Printf("  raw export volume (1):      %12d bytes\n", rawBytes)
	fmt.Printf("  WAN summary volume (3):     %12d bytes (%.1fx reduction)\n",
		sys.WANBytes(), float64(rawBytes)/float64(sys.WANBytes()))
	fmt.Printf("  FlowDB rows (4):            %12d\n", sys.DB.Len())
	if *stream {
		st := sys.SourceStats()
		fmt.Printf("  flowsource:                 %12d frames, %d batches, %d dropped, %d truncated, peak %d queued\n",
			st.Frames, st.Batches, st.Dropped, st.Truncated, st.PeakQueued)
		if *wal != "" {
			fmt.Printf("  journal errors:             %12d\n", st.JournalErrors)
		}
		if err := sys.Source().Close(); err != nil {
			return err
		}
	}
	if *wal != "" || *spillDir != "" {
		ds := sys.DiskStats()
		fmt.Printf("  durable tier:               %12d WAL records, %d seal errors, %d spilled epochs (%d bytes), %d spill errors, %d corrupt\n",
			ds.WALRecords, ds.WALSealErrors, ds.SpilledEpochs, ds.SpilledBytes, ds.SpillErrors, ds.CorruptSpills)
		if err := sys.CloseDisk(); err != nil {
			return err
		}
	}

	if !*queries {
		return nil
	}
	fmt.Println("\nsample FlowQL queries (5):")
	for _, stmt := range []string{
		`SELECT QUERY FROM ALL`,
		`SELECT TOPK(5) FROM ALL`,
		`SELECT HHH(0.02) FROM ALL`,
	} {
		res, err := sys.Query(stmt)
		if err != nil {
			return err
		}
		fmt.Printf("\nflowql> %s\n", stmt)
		if _, err := os.Stdout.WriteString(flowql.Format(res)); err != nil {
			return err
		}
	}
	return nil
}

// runBatched is the materialized-slice ingest loop (the pre-PR-5 shape).
func runBatched(sys *flowstream.System, names []string, epochs, flows int, skew float64) (uint64, error) {
	var rawBytes uint64
	for e := 0; e < epochs; e++ {
		for i, site := range names {
			gen, err := workload.NewFlowGen(workload.FlowConfig{
				Seed: int64(e*1000 + i), Skew: skew,
			})
			if err != nil {
				return 0, err
			}
			recs := gen.Records(flows)
			rawBytes += uint64(len(recs)) * 40 // one NetFlow-style record on the wire
			if err := sys.IngestBatch(site, recs); err != nil {
				return 0, err
			}
		}
		if err := sys.EndEpoch(); err != nil {
			return 0, err
		}
	}
	return rawBytes, nil
}

// runStreaming replays every epoch as per-site framed streams: one paced
// generator writes into a pipe per site, one goroutine per site consumes it
// — the continuous router traffic of Figure 5 step 1.
func runStreaming(sys *flowstream.System, names []string, epochs, flows int, skew float64) (uint64, error) {
	gens := make([]*flowsource.Generator, len(names))
	for i := range names {
		g, err := flowsource.NewGenerator(flowsource.GenConfig{
			Workload: workload.FlowConfig{Seed: int64(i + 1), Skew: skew},
			Records:  flows,
			Epoch:    time.Minute,
			Clock:    sys.Clock,
		})
		if err != nil {
			return 0, err
		}
		gens[i] = g
	}
	var rawBytes uint64
	for e := 0; e < epochs; e++ {
		var wg sync.WaitGroup
		errs := make([]error, 2*len(names))
		for i, site := range names {
			pr, pw := io.Pipe()
			wg.Add(2)
			go func(i int, g *flowsource.Generator) {
				defer wg.Done()
				_, err := g.WriteEpoch(pw)
				pw.CloseWithError(err)
				errs[2*i] = err
			}(i, gens[i])
			go func(i int, site string, pr *io.PipeReader) {
				defer wg.Done()
				errs[2*i+1] = sys.ConsumeStream(site, pr)
			}(i, site, pr)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		rawBytes += uint64(len(names)*flows) * 40
		if err := sys.EndEpoch(); err != nil {
			return 0, err
		}
	}
	return rawBytes, nil
}
