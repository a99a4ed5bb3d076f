package flowdb

import (
	"fmt"
	"testing"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowtree"
)

// buildBenchDB fills a DB with rows epochs of width one minute, spread
// round-robin across locations. The handful of distinct trees is shared
// across rows (stored trees are immutable), so index size — the quantity
// Select's search cost depends on — scales without the memory of a hundred
// thousand distinct trees.
func buildBenchDB(b *testing.B, rows, locations int, opts ...Option) (*DB, []Row) {
	b.Helper()
	trees := make([]*flowtree.Tree, 16)
	for i := range trees {
		tr, err := flowtree.New(0)
		if err != nil {
			b.Fatal(err)
		}
		tr.Add(flow.Record{
			Key:     flow.Exact(flow.ProtoTCP, flow.IPv4(0x0A000000+i), 0xC0A80105, uint16(40000+i), 443),
			Packets: 1, Bytes: uint64(100 + i),
		})
		trees[i] = tr
	}
	all := make([]Row, rows)
	for i := range all {
		all[i] = Row{
			Location: fmt.Sprintf("site%02d", i%locations),
			Start:    t0.Add(time.Duration(i/locations) * time.Minute),
			Width:    time.Minute,
			Tree:     trees[i%len(trees)],
		}
	}
	db := New(opts...)
	const batch = 4096
	for lo := 0; lo < len(all); lo += batch {
		hi := min(lo+batch, len(all))
		if err := db.InsertBatch(all[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	return db, all
}

// BenchmarkFlowDBSelect measures the indexed selection grid the PR targets:
// rows × locations × window, cold (memoization off — every query pays the
// binary search plus merge) and warm (memoization on, same window repeated
// — every query after the first is a cache hit). The flat/<...> variants
// run the seed's full-scan serial merge over the same row set as the
// baseline the speedup targets are measured against.
func BenchmarkFlowDBSelect(b *testing.B) {
	for _, cfg := range []struct {
		rows, locations, windowEpochs int
	}{
		{10000, 4, 1},
		{100000, 4, 1},
		{100000, 16, 1},
		{100000, 4, 64},
	} {
		name := fmt.Sprintf("rows=%d/locs=%d/window=%d", cfg.rows, cfg.locations, cfg.windowEpochs)
		from := t0.Add(time.Duration(cfg.rows/cfg.locations/2) * time.Minute)
		to := from.Add(time.Duration(cfg.windowEpochs) * time.Minute)
		b.Run("cold/"+name, func(b *testing.B) {
			db, _ := buildBenchDB(b, cfg.rows, cfg.locations, WithCacheEntries(0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Select(nil, from, to); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("warm/"+name, func(b *testing.B) {
			db, _ := buildBenchDB(b, cfg.rows, cfg.locations)
			if _, _, err := db.Select(nil, from, to); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Select(nil, from, to); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("flat/"+name, func(b *testing.B) {
			_, rows := buildBenchDB(b, cfg.rows, cfg.locations)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := flatSelect(rows, nil, from, to); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubscribe measures the standing-query maintenance path against
// the polling it replaces: 8 views over a 100k-row index, each epoch
// landing one row per location. The incremental pass folds the delta into
// every overlapping view (one MergeAll per view per batch) and reads the
// maintained results; the poll pass answers the same 8 dashboard reads with
// cold Selects (memoization off: a repeated window over a growing index
// can never be served from the memo), re-merging the full per-location
// history every epoch. Both passes run a fixed number of epochs inside one
// iteration — 2000 incremental (microseconds each) and 20 polled
// (milliseconds each), so each out-runs scheduler noise and -benchtime 1x
// is a full measurement. Incremental must hold at least 10x over polling;
// the floor compares the two paths within one run, so a slow host cancels
// out.
func BenchmarkSubscribe(b *testing.B) {
	const locations = 8
	const rows = 100000
	const incEpochs = 2000
	const pollEpochs = 20
	tr, err := flowtree.New(0)
	if err != nil {
		b.Fatal(err)
	}
	tr.Add(flow.Record{Key: flow.Exact(flow.ProtoTCP, 1, 2, 3, 4), Packets: 1, Bytes: 1})
	base := t0.Add(365 * 24 * time.Hour) // after every preloaded epoch
	batchAt := func(i int) []Row {
		batch := make([]Row, locations)
		for j := range batch {
			batch[j] = Row{
				Location: fmt.Sprintf("site%02d", j),
				Start:    base.Add(time.Duration(i) * time.Minute),
				Width:    time.Minute,
				Tree:     tr,
			}
		}
		return batch
	}
	end := base.Add(1 << 40) // open upper bound past every epoch
	var incTime, pollTime time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, _ := buildBenchDB(b, rows, locations)
		views := make([]*View, locations)
		for j := range views {
			v, err := db.Subscribe(ViewQuery{Locations: []string{fmt.Sprintf("site%02d", j)}})
			if err != nil {
				b.Fatal(err)
			}
			views[j] = v
		}
		b.StartTimer()
		start := time.Now()
		for e := 0; e < incEpochs; e++ {
			if err := db.InsertBatch(batchAt(e)); err != nil {
				b.Fatal(err)
			}
			for _, v := range views {
				if _, _, err := v.Result(); err != nil {
					b.Fatal(err)
				}
			}
		}
		incTime += time.Since(start)

		b.StopTimer()
		db, _ = buildBenchDB(b, rows, locations, WithCacheEntries(0))
		b.StartTimer()
		start = time.Now()
		for e := 0; e < pollEpochs; e++ {
			if err := db.InsertBatch(batchAt(e)); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < locations; j++ {
				if _, _, err := db.Select([]string{fmt.Sprintf("site%02d", j)}, time.Time{}, end); err != nil {
					b.Fatal(err)
				}
			}
		}
		pollTime += time.Since(start)
	}
	incUPS := float64(b.N*incEpochs*locations) / incTime.Seconds()
	pollUPS := float64(b.N*pollEpochs*locations) / pollTime.Seconds()
	b.ReportMetric(incUPS, "inc-updates/s")
	b.ReportMetric(pollUPS, "poll-updates/s")
	speedup := incUPS / pollUPS
	b.ReportMetric(speedup, "speedup")
	if speedup < 10 {
		b.Fatalf("standing views hold %.1fx of cold-Select polling at %d views, want >= 10x", speedup, locations)
	}
}

// BenchmarkMemoKey measures the memo-cache key builder — on the hot path
// of every memoized Select — in its two shapes: pre-sorted locations (the
// common case, a single pre-sized build pass) and unsorted (pays one copy
// plus sort).
func BenchmarkMemoKey(b *testing.B) {
	from, to := t0, t0.Add(time.Hour)
	b.Run("sorted", func(b *testing.B) {
		locs := []string{"ams", "fra", "lhr", "nyc"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if k, ok := memoKey(locs, from, to); !ok || k == "" {
				b.Fatal("bad key")
			}
		}
	})
	b.Run("unsorted", func(b *testing.B) {
		locs := []string{"nyc", "fra", "ams", "lhr"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if k, ok := memoKey(locs, from, to); !ok || k == "" {
				b.Fatal("bad key")
			}
		}
	})
}

// BenchmarkFlowDBInsertBatch measures the writer: epoch-ordered batches
// appended to a large segmented index (the seed re-sorted the whole index
// per batch).
func BenchmarkFlowDBInsertBatch(b *testing.B) {
	const locations = 8
	tr, err := flowtree.New(0)
	if err != nil {
		b.Fatal(err)
	}
	tr.Add(flow.Record{Key: flow.Exact(flow.ProtoTCP, 1, 2, 3, 4), Packets: 1, Bytes: 1})
	db, _ := buildBenchDB(b, 100000, locations)
	base := t0.Add(365 * 24 * time.Hour) // after every preloaded epoch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]Row, locations)
		for j := range batch {
			batch[j] = Row{
				Location: fmt.Sprintf("site%02d", j),
				Start:    base.Add(time.Duration(i) * time.Minute),
				Width:    time.Minute,
				Tree:     tr,
			}
		}
		if err := db.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
