package main

import (
	"fmt"
	"math"
	"time"

	"megadata/internal/federation"
)

// runSeconds is BENCHMARK.json's run_seconds. Every workload is fixed work:
// the constants below are sized so the timed section lasts about this long
// on a 2-core machine, and -seconds only scales the number of work units
// (epochs, queries) by seconds/runSeconds. The same -seconds always means
// the same epochs and the same statement list.
const runSeconds = 10

// coldMix is how often each window width (params.Widths, in order) appears
// per site subset in one cycle of query_cold's list. The widest windows are
// the scarcest keys (32 epochs hold 9 windows of 24), so a cycle asks for one
// of them and two of each narrower width: 15 subsets x 5 = 75 statements a
// cycle, the same mix of merge sizes in every cycle.
var coldMix = []int{2, 2, 1}

// traceFraction is the share of a timed run's work a traced run repeats.
const traceFraction = 0.2

// A run sets up (generates inputs, builds the system, preloads it)
// params.SetupReps times; setup_s is the median, the last one is used.
// Set-ups that take seconds are repeated 3 times, shorter ones 5 times.

// epochWidth is the virtual width of one epoch; statement windows are
// multiples of it counted from epoch0.
const epochWidth = time.Minute

var epoch0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

// Workload names are permanent: later issues cite them.
const (
	wIngest = "ingest_line_rate"
	wWarm   = "query_warm"
	wCold   = "query_cold"
	wLive   = "live_mixed"
	wFleet  = "fleet_epochs"
)

var workloadNames = []string{wIngest, wWarm, wCold, wLive, wFleet}

// params are one workload's frozen constants after scaling. The run header
// prints them; nothing else decides how much work a run does.
type params struct {
	Workload string  `json:"workload"`
	Scale    float64 `json:"scale"`

	// The system under test: what cmd/flowserved wires by default.
	Sites  []string `json:"sites,omitempty"`
	Budget int      `json:"budget"`
	Shards int      `json:"shards,omitempty"`
	WAL    bool     `json:"wal,omitempty"`

	// Preload (set-up) and timed ingest: epochs x records per site per
	// epoch, cycling DistinctEpochs pre-rendered epochs per site.
	PreloadEpochs  int `json:"preload_epochs,omitempty"`
	PreloadRecords int `json:"preload_records,omitempty"`
	Epochs         int `json:"epochs,omitempty"`
	EpochRecords   int `json:"epoch_records,omitempty"`
	DistinctEpochs int `json:"distinct_epochs,omitempty"`

	// Open-loop ingest (live_mixed): offered rate and tick.
	RatePerS int `json:"rate_per_s,omitempty"`
	TickMs   int `json:"tick_ms,omitempty"`

	SetupReps int `json:"setup_reps"`

	// Queries: closed-loop clients sharing a fixed list. WarmupQueries are
	// issued before timing (query_cold: they fill the memo LRU, so the timed
	// list runs at the steady heap size).
	Clients       int   `json:"clients,omitempty"`
	ThinkMs       int   `json:"think_ms,omitempty"`
	Statements    int   `json:"statements,omitempty"`
	Queries       int   `json:"queries,omitempty"`
	WarmupQueries int   `json:"warmup_queries,omitempty"`
	Widths        []int `json:"widths,omitempty"`
	// CheckQueries sizes the verification query leg of workloads whose
	// timed section issues no query list of its own.
	CheckQueries int `json:"check_queries,omitempty"`

	// Fleet (fleet_epochs).
	Leaves     int   `json:"leaves,omitempty"`
	Fanout     []int `json:"fanout,omitempty"`
	LeafBudget int   `json:"leaf_budget,omitempty"`
	AggBudget  int   `json:"agg_budget,omitempty"`
	FailEvery  int   `json:"fail_every,omitempty"`
	LinkMBps   int   `json:"link_mbps,omitempty"`
	LinkMs     int   `json:"link_ms,omitempty"`
}

// units scales a unit count, never below lo.
func units(n int, scale float64, lo int) int {
	return max(lo, int(math.Round(float64(n)*scale)))
}

// decodeChunk is the record count flowsource.Source.Consume decodes before it
// hands records on (and counts them in Stats.Frames). A producer that keeps
// its connection open across epochs can only see Frames reach what it sent
// at multiples of it, so every streamed epoch and open-loop tick is a whole
// number of chunks.
const decodeChunk = 256

// chunks is perUnit for streamed epochs: a whole number of decode chunks.
func chunks(n int, scale float64) int {
	return perUnit(n/decodeChunk, scale, 1) * decodeChunk
}

// checkQueries sizes the verification query leg: it is not part of the
// timed section, so it keeps its full size in traced runs (a short leg is at
// the mercy of where one collection falls) and only shrinks for smoke tests.
func checkQueries(scale float64) int {
	return perUnit(1600, scale, 16)
}

// perUnit shrinks the size of one unit only below a fifth of full scale
// (the smoke-test range), so timed and traced runs move the same epochs.
func perUnit(n int, scale float64, lo int) int {
	if scale >= traceFraction {
		return n
	}
	return units(n, scale/traceFraction, lo)
}

// paramsFor returns the frozen constants of a workload at a scale
// (1 = run_seconds of timed work).
func paramsFor(name string, scale float64) (params, error) {
	p := params{Workload: name, Scale: scale, Budget: 4096, Shards: 1, SetupReps: 5}
	switch name {
	case wIngest:
		p.Sites = []string{"west", "east"}
		p.Epochs = units(32, scale, 2)
		p.EpochRecords = chunks(102400, scale)
		p.DistinctEpochs = 5
		p.CheckQueries = checkQueries(scale)
	case wWarm, wCold:
		p.Sites = []string{"s0", "s1", "s2", "s3"}
		p.SetupReps = 3
		p.PreloadEpochs = 32
		p.PreloadRecords = perUnit(4096, scale, 64)
		p.DistinctEpochs = 8
		p.Clients = 2
		if name == wWarm {
			p.Statements = 16
			p.Queries = units(2400, scale, 2*p.Statements)
		} else {
			// Nine cycles of 75 statements, every (subset, window) key
			// distinct: two fill the 128-entry memo LRU before timing, seven
			// (4x the LRU) are timed.
			p.Widths = []int{2, 8, 24}
			p.Statements = units(525, scale, 8)
			p.Queries = p.Statements
			p.WarmupQueries = units(150, scale, 4)
		}
	case wLive:
		p.Sites = []string{"west"}
		p.WAL = true
		p.PreloadEpochs = 16
		p.PreloadRecords = perUnit(10000, scale, 64)
		p.Epochs = units(48, scale, 2)
		p.RatePerS = 102400
		p.TickMs = 10
		// 46 ticks of 1024 records to the epoch on average (see epochTicks).
		p.EpochRecords = perUnit(46, scale, 2) * p.RatePerS * p.TickMs / 1000
		p.DistinctEpochs = 5
		p.Clients = 1
		p.ThinkMs = 2
		p.Statements = 8
		p.CheckQueries = checkQueries(scale)
	case wFleet:
		p.Budget = 0
		p.Shards = 0
		p.Leaves = 64
		var err error
		if p.Fanout, err = federation.FanoutFor(p.Leaves, 3); err != nil { // {8, 8}
			return p, err
		}
		p.LeafBudget = 1024
		p.AggBudget = 4096
		p.FailEvery = 7
		p.LinkMBps = 10
		p.LinkMs = 2
		p.Epochs = units(128, scale, 8)
		p.EpochRecords = perUnit(500, scale, 50)
		p.DistinctEpochs = 8
		p.CheckQueries = checkQueries(scale)
	default:
		return p, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return p, nil
}

// metricDef declares one metric; BENCHMARK.json repeats these and
// bench_test.go fails when the two drift.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd are the twelve metrics a user of the pipeline sees. Every
// workload reports all of them: each is taken on the leg of the run that
// exercises it (see README "Which leg a metric is measured on").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_records_per_s", "records/s", "higher", 0.25},
	{"epoch_fresh_ms_p25", "ms", "lower", 0.25},
	{"notify_ms_p25", "ms", "lower", 0.25},
	{"query_qps", "queries/s", "higher", 0.25},
	{"query_ms_p25", "ms", "lower", 0.25},
	{"fleet_epochs_per_s", "epochs/s", "higher", 0.25},
	{"wan_bytes_per_record", "bytes", "lower", 0.06},
	{"alloc_bytes_per_record", "bytes", "lower", 0.03},
	{"alloc_bytes_per_query", "bytes", "lower", 0.04},
	{"heap_live_mb", "MiB", "lower", 0.15},
	{"delivered_share", "ratio", "higher", 0.001},
}
