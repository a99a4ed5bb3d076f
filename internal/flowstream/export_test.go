package flowstream

import (
	"testing"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowtree"
	"megadata/internal/primitive"
	"megadata/internal/simnet"
	"megadata/internal/workload"
)

// localTotal queries a site store's Flowtree over all time (live + local
// retention).
func localTotal(t *testing.T, sys *System, site string) flow.Counters {
	t.Helper()
	st, err := sys.Store(site)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Query(aggName, primitive.FlowQuery{Key: flow.Root()},
		time.Time{}, sys.Clock.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return got.(flow.Counters)
}

// TestTransientFailureReShipsFromRetention drives the re-ship path end to
// end: a failed WAN transfer leaves the epoch queryable at the site, the
// next EndEpoch delivers it to central (oldest first), and an explicit
// ReExportPending drains what remains.
func TestTransientFailureReShipsFromRetention(t *testing.T) {
	sys, err := New(Config{
		Sites: []string{"edge"},
		Epoch: time.Minute,
		// Every 2nd transfer attempt on the link fails transiently.
		Link: simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond, FailEvery: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(bytes uint64) []flow.Record {
		return []flow.Record{{
			Key:     flow.Exact(flow.ProtoTCP, 0x0A000001, 0xC0A80101, 40000, 443),
			Packets: 1, Bytes: bytes,
		}}
	}
	// Epoch 0: attempt 1 succeeds.
	if err := sys.Ingest("edge", mk(100)); err != nil {
		t.Fatal(err)
	}
	if err := sys.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	if sys.DB.Len() != 1 || sys.PendingExports() != 0 {
		t.Fatalf("epoch 0: rows=%d pending=%d", sys.DB.Len(), sys.PendingExports())
	}

	// Epoch 1: attempt 2 fails. Not an error — the epoch stays local.
	if err := sys.Ingest("edge", mk(900)); err != nil {
		t.Fatal(err)
	}
	if err := sys.EndEpoch(); err != nil {
		t.Fatalf("transient transfer failure must not fail EndEpoch: %v", err)
	}
	if sys.DB.Len() != 1 {
		t.Errorf("failed epoch reached central: rows=%d", sys.DB.Len())
	}
	if sys.PendingExports() != 1 {
		t.Errorf("pending=%d, want 1", sys.PendingExports())
	}
	if got := localTotal(t, sys, "edge"); got.Bytes != 1000 {
		t.Errorf("failed epoch not queryable locally: local bytes=%d, want 1000", got.Bytes)
	}
	if st := sys.Net.TotalStats(); st.Failures != 1 {
		t.Errorf("link failures=%d, want 1", st.Failures)
	}

	// Epoch 2: the pending epoch 1 re-ships first (attempt 3, succeeds),
	// then epoch 2's fresh export fails (attempt 4) and queues.
	if err := sys.Ingest("edge", mk(8000)); err != nil {
		t.Fatal(err)
	}
	if err := sys.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	if sys.DB.Len() != 2 {
		t.Errorf("after re-ship rows=%d, want 2 (epochs 0 and 1)", sys.DB.Len())
	}
	if sys.PendingExports() != 1 {
		t.Errorf("pending=%d, want 1 (epoch 2)", sys.PendingExports())
	}
	// Epoch 1's row arrived with its original interval.
	rows := sys.DB.Rows()
	e1 := rows[1]
	if !e1.Start.Equal(sys.cfg.Start.Add(time.Minute)) || e1.Tree.Total().Bytes != 900 {
		t.Errorf("re-shipped epoch 1 row = start %v bytes %d", e1.Start, e1.Tree.Total().Bytes)
	}

	// Explicit drain: attempt 5 succeeds.
	n, err := sys.ReExportPending()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || sys.PendingExports() != 0 || sys.DB.Len() != 3 {
		t.Errorf("ReExportPending: delivered=%d pending=%d rows=%d", n, sys.PendingExports(), sys.DB.Len())
	}
	// Central now holds everything the site saw.
	res, err := sys.Query(`SELECT QUERY FROM ALL`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Bytes != 9000 {
		t.Errorf("central bytes=%d, want 9000", res.Counters.Bytes)
	}
}

// TestCentralBudgetCoarsensCentralTrees checks Config.CentralBudget is
// threaded to the central decode (default 0 = full fidelity).
func TestCentralBudgetCoarsensCentralTrees(t *testing.T) {
	run := func(centralBudget int) *System {
		sys, err := New(Config{
			Sites:         []string{"edge"},
			Epoch:         time.Minute,
			CentralBudget: centralBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 3, Skew: 1.2})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Ingest("edge", g.Records(5000)); err != nil {
			t.Fatal(err)
		}
		if err := sys.EndEpoch(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	full := run(0)
	coarse := run(64)
	fullLen := full.DB.Rows()[0].Tree.Len()
	coarseLen := coarse.DB.Rows()[0].Tree.Len()
	if coarseLen > 64 {
		t.Errorf("central tree has %d nodes, budget 64", coarseLen)
	}
	if fullLen <= 64 {
		t.Fatalf("full-fidelity tree only has %d nodes; test needs more traffic", fullLen)
	}
	// Totals survive coarsening.
	if full.DB.Rows()[0].Tree.Total() != coarse.DB.Rows()[0].Tree.Total() {
		t.Error("coarsening changed the total")
	}
}

// TestV2WireCutsWANBytes asserts the acceptance bound for the compact
// codec: on the workload generator's default mix, the bytes actually
// shipped (WANBytes, v2) are at most 70% of what the v1 fixed-width
// encoding of the same trees would have cost.
func TestV2WireCutsWANBytes(t *testing.T) {
	sys, err := New(Config{Sites: []string{"edge", "core"}, Epoch: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i, site := range []string{"edge", "core"} {
		g, err := workload.NewFlowGen(workload.FlowConfig{Seed: int64(42 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Ingest(site, g.Records(20000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	wan := sys.WANBytes()
	// Central decoded at full fidelity, so re-encoding its rows in v1
	// reproduces the legacy wire cost of exactly what was shipped.
	var v1 uint64
	for _, r := range sys.DB.Rows() {
		n, err := r.Tree.WireSizeBytes(flowtree.WireV1)
		if err != nil {
			t.Fatal(err)
		}
		v1 += n
	}
	if wan == 0 || v1 == 0 {
		t.Fatal("nothing shipped")
	}
	if wan*10 > v1*7 {
		t.Errorf("v2 WAN bytes %d not <=70%% of v1 %d (%.1f%%)", wan, v1, 100*float64(wan)/float64(v1))
	}
	t.Logf("v2 wire: %d bytes, v1 equivalent: %d bytes (%.1f%%)", wan, v1, 100*float64(wan)/float64(v1))
}

// TestPipelinedEndEpochMatchesSerial checks the pipeline is a pure
// performance change: pipelined and serial (one-worker) exports produce
// identical central databases.
func TestPipelinedEndEpochMatchesSerial(t *testing.T) {
	build := func(workers int) *System {
		sys, err := New(Config{
			Sites:         []string{"a", "b", "c", "d"},
			Epoch:         time.Minute,
			TreeBudget:    512,
			Shards:        2,
			ExportWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			for i, site := range []string{"a", "b", "c", "d"} {
				g, err := workload.NewFlowGen(workload.FlowConfig{Seed: int64(epoch*4 + i), Skew: 1.3})
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Ingest(site, g.Records(3000)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	serial := build(1)
	piped := build(4)
	sr, pr := serial.DB.Rows(), piped.DB.Rows()
	if len(sr) != len(pr) {
		t.Fatalf("row counts differ: %d vs %d", len(sr), len(pr))
	}
	for i := range sr {
		if sr[i].Location != pr[i].Location || !sr[i].Start.Equal(pr[i].Start) {
			t.Fatalf("row %d index differs: %v@%v vs %v@%v", i, sr[i].Location, sr[i].Start, pr[i].Location, pr[i].Start)
		}
		se, pe := sr[i].Tree.Entries(), pr[i].Tree.Entries()
		if len(se) != len(pe) {
			t.Fatalf("row %d entry counts differ", i)
		}
		for j := range se {
			if se[j] != pe[j] {
				t.Fatalf("row %d entry %d differs: %+v vs %+v", i, j, se[j], pe[j])
			}
		}
	}
	if serial.WANBytes() != piped.WANBytes() {
		t.Errorf("WAN bytes differ: %d vs %d", serial.WANBytes(), piped.WANBytes())
	}
}

// TestPendingQueueCappedByRetention drives the ROADMAP cap end to end:
// with the WAN down and a retention budget of ~2.5 epochs, the re-ship
// queue cannot outgrow the retention horizon — epochs the round-robin
// store evicts are dropped from the queue with a counted stat instead of
// being re-shipped as data the site no longer holds.
func TestPendingQueueCappedByRetention(t *testing.T) {
	rec := flow.Record{
		Key:     flow.Exact(flow.ProtoTCP, 0x0A000001, 0xC0A80101, 40000, 443),
		Packets: 1, Bytes: 100,
	}
	probe, err := flowtree.New(0)
	if err != nil {
		t.Fatal(err)
	}
	probe.Add(rec)
	epochSize := probe.SizeBytes()
	down := simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond, FailEvery: 1}
	sys, err := New(Config{
		Sites: []string{"edge"},
		Epoch: time.Minute,
		Link:  down,
		// Room for two sealed epochs (plus slack): sealing a third evicts
		// the oldest from local retention.
		RetentionBytes: 2*epochSize + epochSize/2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sys.Ingest("edge", []flow.Record{rec}); err != nil {
			t.Fatal(err)
		}
		if err := sys.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// Epochs 0 and 1 fell off the retention horizon while queued; the
	// queue is capped to what the site still holds.
	if got := sys.DroppedExports(); got != 2 {
		t.Errorf("dropped=%d, want 2", got)
	}
	if got := sys.PendingExports(); got != 2 {
		t.Errorf("pending=%d, want 2 (the retained epochs)", got)
	}
	// WAN back up: only the honestly re-shippable epochs deliver.
	up := simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond}
	if err := sys.Net.Connect("edge", sys.central, up); err != nil {
		t.Fatal(err)
	}
	n, err := sys.ReExportPending()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || sys.PendingExports() != 0 {
		t.Errorf("ReExportPending: n=%d pending=%d, want 2/0", n, sys.PendingExports())
	}
	rows := sys.DB.Rows()
	if len(rows) != 2 {
		t.Fatalf("central rows=%d, want 2", len(rows))
	}
	// The delivered rows are epochs 2 and 3 — the evicted epochs 0 and 1
	// never reached central.
	for i, r := range rows {
		want := sys.cfg.Start.Add(time.Duration(i+2) * time.Minute)
		if !r.Start.Equal(want) {
			t.Errorf("row %d start=%v, want %v", i, r.Start, want)
		}
	}
}

// TestNegativeCentralBudgetRejected pins the construction-time validation
// that keeps central decode errors out of the export pipeline.
func TestNegativeCentralBudgetRejected(t *testing.T) {
	if _, err := New(Config{Sites: []string{"s"}, CentralBudget: -1}); err == nil {
		t.Error("negative central budget must error")
	}
}
