package main

import (
	"fmt"
	"runtime"
	"time"

	"megadata/internal/flowdb"
)

// outcome is everything one run measured. Every workload fills both legs:
// one is its timed section, the other its set-up or verification leg (see
// README "Which leg a metric is measured on").
type outcome struct {
	p      params
	setup  []float64 // seconds, one per set-up repetition
	ingest ingestLeg
	query  queryLeg
	heapMB float64
	// Allocation is only ever charged on a single-activity leg: per record
	// where nothing but ingest runs, per query where nothing but queries do.
	allocPerRecord, allocPerQuery float64

	attempted, failed int

	// Traced runs only.
	layer    map[string]float64 // per-layer metrics
	mainCost cost               // process cost of the timed section
	heapPeak float64
	hitRatio float64            // FlowDB memo hits / (hits + misses) over the timed queries
	shares   map[string]float64 // each layer's share of the timed section's stage time
	notes    []string           // the ledger's three sums, spelled out
}

// metrics assembles the twelve end-to-end metrics.
func (o *outcome) metrics() map[string]float64 {
	in, q := &o.ingest, &o.query
	typical := q.typical()
	return map[string]float64{
		"setup_s":              median(o.setup),
		"ingest_records_per_s": windowedRate(in.epochS, float64(in.records)/float64(in.epochs), rateWindows),
		"epoch_fresh_ms_p25":   percentile(in.fresh, 0.25),
		"notify_ms_p25":        percentile(in.notify, 0.25),
		// Closed loop: each client has one query in flight, so the clients
		// together complete clients/typical queries a second.
		"query_qps":              float64(len(q.latBy)) / typical,
		"query_ms_p25":           1e3 * typical,
		"fleet_epochs_per_s":     windowedRate(in.epochS, 1, rateWindows),
		"wan_bytes_per_record":   float64(in.wan) / float64(in.records),
		"alloc_bytes_per_record": o.allocPerRecord,
		"alloc_bytes_per_query":  o.allocPerQuery,
		"heap_live_mb":           o.heapMB,
		"delivered_share":        1 - float64(o.failed)/float64(o.attempted),
	}
}

// runWorkload sets up, runs and checks one workload. tr is nil for
// end-to-end runs; a traced run sets up once.
func runWorkload(p params, seed int64, tr *tracer) (*outcome, error) {
	if p.Workload == wFleet {
		return runFleetWorkload(p, seed, tr)
	}
	return runSocketWorkload(p, seed, tr)
}

func setupRepsFor(p params, tr *tracer) int {
	if tr != nil {
		return 1
	}
	return p.SetupReps
}

func runSocketWorkload(p params, seed int64, tr *tracer) (o *outcome, err error) {
	o = &outcome{p: p}
	var r *sockRun
	var pre ingestLeg
	for rep := 0; rep < setupRepsFor(p, tr); rep++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		in, err := genSockInput(p, seed)
		if err != nil {
			return nil, err
		}
		if r, err = newSockRun(p, in, tr); err != nil {
			return nil, err
		}
		leg, err := r.preload()
		if err != nil {
			r.close()
			return nil, err
		}
		// The preload leg's timings pool the samples of every set-up, its
		// counts are those of the last.
		leg.epochS = append(pre.epochS, leg.epochS...)
		leg.fresh = append(pre.fresh, leg.fresh...)
		leg.notify = append(pre.notify, leg.notify...)
		pre = leg
		if p.Workload == wWarm {
			// Each statement is issued once before timing, so the timed
			// list is all memo hits.
			if _, _, err := r.queryClosed([][]string{warmStatements(p.Sites, p.PreloadEpochs)}, nil); err != nil {
				r.close()
				return nil, err
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := r.close(); err == nil {
			err = cerr
		}
	}()
	if len(r.in.warmup) > 0 {
		// Warm-up, not set-up: the memo LRU fills, the heap grows to the
		// size it keeps, and the timed list then runs in the steady state.
		warm, _, err := r.queryClosed(r.in.warmup, nil)
		if err != nil {
			return nil, err
		}
		o.attempted, o.failed = warm.n, warm.bad
	}
	var hs *heapSampler
	if tr != nil {
		hs = startHeapSampler()
	}

	// The timed section. It starts from a fixed point of the collector's
	// cycle.
	runtime.GC()
	before := usageNow()
	cache0 := r.s.sys.DB.CacheStats()
	var answers [][]answer
	switch p.Workload {
	case wIngest:
		o.ingest, err = r.ingestClosed()
	case wWarm, wCold:
		o.ingest = pre
		o.query, answers, err = r.queryClosed(r.in.lists, r.in.classes)
	case wLive:
		o.ingest, o.query, err = r.liveMixed()
	}
	if err != nil {
		return nil, err
	}
	o.mainCost = before.since()
	o.hitRatio = hitRatio(cache0, r.s.sys.DB.CacheStats())
	if hs != nil {
		o.heapPeak = hs.peakMB()
	}
	o.attempted += r.sentRecs + o.query.n + r.seals
	// Late open-loop ticks are the generator's lateness, not failed
	// operations: they are printed and reported as client.send_lag_ms_p99.
	o.failed += o.query.bad

	// Allocation per record is charged where nothing but ingest ran.
	ingestOnly := o.ingest
	if p.Workload == wLive {
		ingestOnly = pre
	}
	o.allocPerRecord = float64(ingestOnly.alloc) / float64(ingestOnly.records)

	switch p.Workload {
	case wWarm, wCold:
		// The timed section is the query leg: it must have been all hits
		// or all misses, and its answers are checked.
		if p.Workload == wWarm && o.hitRatio < 0.99 {
			return nil, fmt.Errorf("query_warm: memo hit ratio %.4f, want >= 0.99", o.hitRatio)
		}
		if p.Workload == wCold && o.hitRatio > 0.01 {
			return nil, fmt.Errorf("query_cold: memo hit ratio %.4f, want <= 0.01", o.hitRatio)
		}
		every := 1
		if p.Workload == wCold {
			every = 4
		}
		if err := r.checkAnswers(r.in.lists, answers, every); err != nil {
			return nil, err
		}
		o.allocPerQuery = float64(o.query.alloc) / float64(o.query.n)
	default:
		// The verification leg: nothing but queries, every answer checked.
		// It is the query leg of a workload whose timed section has no
		// statement list (ingest_line_rate), and where live_mixed's
		// allocation per query is charged.
		runtime.GC()
		cache0 = r.s.sys.DB.CacheStats()
		list := [][]string{r.in.check}
		leg, answers, err := r.queryClosed(list, nil)
		if err != nil {
			return nil, err
		}
		if err := r.checkAnswers(list, answers, 1); err != nil {
			return nil, err
		}
		o.attempted += leg.n
		o.failed += leg.bad
		o.allocPerQuery = float64(leg.alloc) / float64(leg.n)
		if p.Workload == wIngest {
			o.query = leg
			o.hitRatio = hitRatio(cache0, r.s.sys.DB.CacheStats())
		}
	}
	if err := r.conservation(); err != nil {
		return nil, err
	}
	o.heapMB = heapLiveMB()
	if tr != nil {
		if err := socketLedger(o, r); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// hitRatio is the FlowDB memo cache's hits over lookups between two
// snapshots.
func hitRatio(a, b flowdb.CacheStats) float64 {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	return per(float64(hits), int(hits+misses))
}

func runFleetWorkload(p params, seed int64, tr *tracer) (*outcome, error) {
	o := &outcome{p: p}
	var r *fleetRun
	for rep := 0; rep < setupRepsFor(p, tr); rep++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		in, err := genFleet(seed, p.Leaves, min(p.DistinctEpochs, p.Epochs), p.EpochRecords)
		if err != nil {
			return nil, err
		}
		if r, err = newFleetRun(p, in, tr); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	defer r.close()
	var hs *heapSampler
	if tr != nil {
		hs = startHeapSampler()
	}
	runtime.GC()
	before := usageNow()
	var err error
	if o.ingest, err = r.epochs(); err != nil {
		return nil, err
	}
	o.mainCost = before.since()
	if hs != nil {
		o.heapPeak = hs.peakMB()
	}
	var check []string
	stmts := checkStatements("n0", checkWindow(p))
	for i := 0; i < p.CheckQueries; i++ {
		check = append(check, stmts[i%len(stmts)])
	}
	runtime.GC()
	cache0 := r.fl.DB.CacheStats()
	if o.query, err = r.checkQueries(check); err != nil {
		return nil, err
	}
	o.hitRatio = hitRatio(cache0, r.fl.DB.CacheStats())
	if err := r.conservation(); err != nil {
		return nil, err
	}
	o.allocPerRecord = float64(o.ingest.alloc) / float64(o.ingest.records)
	o.allocPerQuery = float64(o.query.alloc) / float64(o.query.n)
	o.attempted = r.sentRecs + o.query.n + p.Epochs
	o.failed = r.fl.DroppedFrames() + r.fl.DroppedExports()
	o.heapMB = heapLiveMB()
	if tr != nil {
		if err := fleetLedger(o, r, check); err != nil {
			return nil, err
		}
	}
	return o, nil
}
