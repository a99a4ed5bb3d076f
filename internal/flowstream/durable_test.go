package flowstream

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowsource"
	"megadata/internal/flowtree"
	"megadata/internal/simnet"
	"megadata/internal/storage/diskio"
	"megadata/internal/workload"
)

var (
	linkDown = simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond, FailEvery: 1}
	linkUp   = simnet.Link{BytesPerSecond: 10e6, Latency: time.Millisecond}
)

// oneFlow is a single-record epoch workload whose sealed size is easy to
// budget against.
var oneFlow = flow.Record{
	Key:     flow.Exact(flow.ProtoTCP, 0x0A000001, 0xC0A80101, 40000, 443),
	Packets: 1, Bytes: 100,
}

// retentionFor returns a RetentionBytes budget holding about n sealed
// single-record epochs (plus half an epoch of slack).
func retentionFor(t *testing.T, n int) uint64 {
	t.Helper()
	probe, err := flowtree.New(0)
	if err != nil {
		t.Fatal(err)
	}
	probe.Add(oneFlow)
	return uint64(n)*probe.SizeBytes() + probe.SizeBytes()/2
}

// TestEvictedEpochStillShipsSameCycle pins the drop-after-ship ordering:
// an epoch the retention ring evicts at seal time is still sitting,
// encoded, in the pending queue — when the same cycle's WAN attempt can
// deliver it, it must ship, not be counted dropped. (The old ordering
// dropped it before trying the link.)
func TestEvictedEpochStillShipsSameCycle(t *testing.T) {
	sys, err := New(Config{
		Sites:          []string{"edge"},
		Epoch:          time.Minute,
		Link:           linkDown,
		RetentionBytes: retentionFor(t, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two epochs queue up while the WAN is down; both still in retention.
	for i := 0; i < 2; i++ {
		if err := sys.Ingest("edge", []flow.Record{oneFlow}); err != nil {
			t.Fatal(err)
		}
		if err := sys.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if sys.PendingExports() != 2 || sys.DroppedExports() != 0 {
		t.Fatalf("setup: pending=%d dropped=%d", sys.PendingExports(), sys.DroppedExports())
	}
	// WAN restored. Sealing epoch 2 evicts epoch 0 from the retention
	// ring — but its frame is queued and the link is up, so this cycle
	// delivers all three epochs.
	if err := sys.Net.Connect("edge", sys.central, linkUp); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest("edge", []flow.Record{oneFlow}); err != nil {
		t.Fatal(err)
	}
	if err := sys.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := sys.DroppedExports(); got != 0 {
		t.Errorf("deliverable evicted epoch counted dropped: %d", got)
	}
	if sys.PendingExports() != 0 || sys.DB.Len() != 3 {
		t.Errorf("pending=%d rows=%d, want 0/3", sys.PendingExports(), sys.DB.Len())
	}
}

// TestSpillKeepsEvictedEpochsDeliverable is the outage A/B: with the WAN
// down across more epochs than retention holds, the in-memory queue must
// drop sealed epochs — but with a spill tier the evicted frames move to
// disk, every epoch re-ships once the WAN heals, and DroppedExports stays
// 0. Delivered spills are deleted from disk.
func TestSpillKeepsEvictedEpochsDeliverable(t *testing.T) {
	run := func(spillDir string) *System {
		t.Helper()
		sys, err := New(Config{
			Sites:          []string{"edge"},
			Epoch:          time.Minute,
			Link:           linkDown,
			RetentionBytes: retentionFor(t, 2),
			SpillDir:       spillDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := sys.Ingest("edge", []flow.Record{oneFlow}); err != nil {
				t.Fatal(err)
			}
			if err := sys.EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Net.Connect("edge", sys.central, linkUp); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ReExportPending(); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// Baseline: no spill tier — the retention cap drops two epochs.
	mem := run("")
	if mem.DroppedExports() != 2 || mem.DB.Len() != 2 {
		t.Fatalf("in-memory baseline: dropped=%d rows=%d, want 2/2", mem.DroppedExports(), mem.DB.Len())
	}

	// Spill tier: zero drops, all four epochs reach central.
	dir := t.TempDir()
	sp := run(dir)
	if sp.DroppedExports() != 0 {
		t.Errorf("spill run dropped %d epochs", sp.DroppedExports())
	}
	if sp.DB.Len() != 4 || sp.PendingExports() != 0 {
		t.Errorf("spill run: rows=%d pending=%d, want 4/0", sp.DB.Len(), sp.PendingExports())
	}
	rows := sp.DB.Rows()
	for i, r := range rows {
		want := sp.cfg.Start.Add(time.Duration(i) * time.Minute)
		if !r.Start.Equal(want) || r.Tree.Total().Bytes != 100 {
			t.Errorf("row %d: start=%v bytes=%d", i, r.Start, r.Tree.Total().Bytes)
		}
	}
	ds := sp.DiskStats()
	if ds.SpilledEpochs != 2 || ds.SpillErrors != 0 || ds.CorruptSpills != 0 {
		t.Errorf("disk stats %+v, want 2 spilled and no errors", ds)
	}
	// Delivered spills are removed from disk.
	if names, err := os.ReadDir(filepath.Join(dir, "edge")); err == nil && len(names) != 0 {
		t.Errorf("%d spill segments left on disk after delivery", len(names))
	}
}

// TestCorruptSpillCountedNotDecoded flips a byte in a spilled frame on
// disk: the re-ship must refuse it by checksum (counted, surfaced as an
// error, the epoch dropped) and deliver everything behind it — never hand
// garbage to the tree decoder.
func TestCorruptSpillCountedNotDecoded(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(Config{
		Sites:          []string{"edge"},
		Epoch:          time.Minute,
		Link:           linkDown,
		RetentionBytes: retentionFor(t, 2),
		SpillDir:       dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sys.Ingest("edge", []flow.Record{oneFlow}); err != nil {
			t.Fatal(err)
		}
		if err := sys.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if sys.DiskStats().SpilledEpochs != 2 {
		t.Fatalf("setup: %+v", sys.DiskStats())
	}
	// Flip the last payload byte of the oldest spilled segment.
	segs, err := filepath.Glob(filepath.Join(dir, "edge", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no spill segments: %v", err)
	}
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sys.Net.Connect("edge", sys.central, linkUp); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ReExportPending(); err == nil {
		t.Fatal("corrupt spilled frame must surface an error")
	}
	if ds := sys.DiskStats(); ds.CorruptSpills != 1 {
		t.Errorf("corrupt spills counted %d, want 1", ds.CorruptSpills)
	}
	if sys.DroppedExports() != 1 {
		t.Errorf("dropped=%d, want 1 (the corrupt epoch)", sys.DroppedExports())
	}
	// The queue behind the corrupt frame drains clean.
	if _, err := sys.ReExportPending(); err != nil {
		t.Fatal(err)
	}
	if sys.DB.Len() != 3 || sys.PendingExports() != 0 {
		t.Errorf("rows=%d pending=%d, want 3/0", sys.DB.Len(), sys.PendingExports())
	}
}

// TestEndEpochAdvancesPastSiteError pins the epoch index to the seals, not
// to the exports' success: an EndEpoch in which one site's export errors
// (here an unreadable spilled frame) has still sealed every site and moved
// the clock, so the next epoch must get the next start — not reuse this
// one's, which would duplicate (Location, Start) at central.
func TestEndEpochAdvancesPastSiteError(t *testing.T) {
	dir := t.TempDir()
	sites := []string{"edge", "core"}
	sys, err := New(Config{
		Sites:          sites,
		Epoch:          time.Minute,
		Link:           linkDown,
		RetentionBytes: retentionFor(t, 2),
		SpillDir:       dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	endEpoch := func(wantErr bool) {
		t.Helper()
		for _, site := range sites {
			if err := sys.Ingest(site, []flow.Record{oneFlow}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.EndEpoch(); (err != nil) != wantErr {
			t.Fatalf("EndEpoch %d: err=%v, want error=%v", sys.Epoch(), err, wantErr)
		}
	}
	for i := 0; i < 4; i++ {
		endEpoch(false)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "edge", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no spill segments: %v", err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	for _, site := range sites {
		if err := sys.Net.Connect(simnet.SiteID(site), sys.central, linkUp); err != nil {
			t.Fatal(err)
		}
	}
	endEpoch(true) // edge's oldest spilled frame is gone
	endEpoch(false)
	if sys.Epoch() != 6 {
		t.Errorf("epoch index %d after 6 seals", sys.Epoch())
	}
	seen := make(map[string]bool)
	for _, r := range sys.DB.Rows() {
		key := r.Location + "@" + r.Start.String()
		if seen[key] {
			t.Errorf("duplicate central row %s", key)
		}
		seen[key] = true
	}
	// Every sealed epoch but the lost one reached central.
	if want := 6*len(sites) - 1; sys.DB.Len() != want || sys.PendingExports() != 0 || sys.DroppedExports() != 1 {
		t.Errorf("rows=%d pending=%d dropped=%d, want %d/0/1", sys.DB.Len(), sys.PendingExports(), sys.DroppedExports(), want)
	}
}

// epochRecords is the deterministic per-site workload the crash-recovery
// tests replay.
func epochRecords(t *testing.T, epoch, site int) []flow.Record {
	t.Helper()
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: int64(epoch*10 + site + 1), Sources: 512})
	if err != nil {
		t.Fatal(err)
	}
	return g.Records(800)
}

// streamEpoch frames one epoch's records into every site of sys.
func streamEpoch(t *testing.T, sys *System, sites []string, epoch int) {
	t.Helper()
	for i, site := range sites {
		var wire []byte
		for _, r := range epochRecords(t, epoch, i) {
			wire = flowsource.AppendFrame(wire, r)
		}
		if err := sys.ConsumeStream(site, bytes.NewReader(wire)); err != nil {
			t.Fatal(err)
		}
	}
}

// rowBytes captures the central rows starting at start as site → tree wire
// image — the byte-for-byte comparison unit of the recovery tests.
func rowBytes(t *testing.T, sys *System, start time.Time) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, r := range sys.DB.Rows() {
		if r.Start.Equal(start) {
			out[r.Location] = r.Tree.AppendBinary(nil)
		}
	}
	return out
}

// crashConfig builds the WAL'd streaming config the crash tests share.
func crashConfig(sites []string, walDir string, start time.Time, fs diskio.FS) Config {
	return Config{
		Sites:        sites,
		Epoch:        time.Minute,
		Start:        start,
		Source:       &flowsource.Config{MaxBatch: 256},
		WALDir:       walDir,
		WALSyncEvery: 1,
		DiskFS:       fs,
	}
}

// TestCrashRecoveryMatchesUninterrupted is the end-to-end crash property:
// a site system that dies mid-epoch — records streamed and drained, no
// seal, so the journals still hold the open epoch — recovers on restart to
// exactly the state an uninterrupted run reaches: after Recover and the
// epoch seal, the central rows are byte-for-byte identical. Epoch 0 is
// sealed before the crash, so the test also proves seal-time journal
// truncation: none of epoch 0 leaks into the recovered epoch 1.
func TestCrashRecoveryMatchesUninterrupted(t *testing.T) {
	sites := []string{"s0", "s1"}
	start := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

	// Uninterrupted baseline: epochs 0 and 1 straight through.
	base, err := New(crashConfig(sites, filepath.Join(t.TempDir(), "wal"), start, nil))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		streamEpoch(t, base, sites, e)
		if err := base.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	want := rowBytes(t, base, start.Add(time.Minute))
	if len(want) != len(sites) {
		t.Fatalf("baseline epoch-1 rows: %d", len(want))
	}

	// Crash run: epoch 0 seals normally, epoch 1 is streamed and drained
	// but never sealed — the process "dies" with the epoch open.
	walDir := filepath.Join(t.TempDir(), "wal")
	crash, err := New(crashConfig(sites, walDir, start, nil))
	if err != nil {
		t.Fatal(err)
	}
	streamEpoch(t, crash, sites, 0)
	if err := crash.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	streamEpoch(t, crash, sites, 1)
	if err := crash.DrainSource(); err != nil {
		t.Fatal(err)
	}
	if err := crash.Source().Close(); err != nil {
		t.Fatal(err)
	}
	if err := crash.CloseDisk(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh system over the same journals, clock positioned at
	// the interrupted epoch. Recover replays exactly the unsealed records.
	rec, err := New(crashConfig(sites, walDir, start.Add(time.Minute), nil))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 2*800 || rs.Truncated != 0 {
		t.Fatalf("recovered %d records (%d torn), want %d clean", rs.Records, rs.Truncated, 2*800)
	}
	if err := rec.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	got := rowBytes(t, rec, start.Add(time.Minute))
	for _, site := range sites {
		if !bytes.Equal(got[site], want[site]) {
			t.Errorf("site %s: recovered central tree differs from uninterrupted run (%d vs %d bytes)",
				site, len(got[site]), len(want[site]))
		}
	}
}

// TestCrashRecoveryUnderFsyncFaults re-runs the crash property with every
// 3rd fsync failing: journal appends surface counted errors, ingest
// continues, and — because the writes themselves landed — recovery still
// reconstructs the uninterrupted state exactly.
func TestCrashRecoveryUnderFsyncFaults(t *testing.T) {
	sites := []string{"s0"}
	start := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

	base, err := New(crashConfig(sites, filepath.Join(t.TempDir(), "wal"), start, nil))
	if err != nil {
		t.Fatal(err)
	}
	streamEpoch(t, base, sites, 0)
	if err := base.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	want := rowBytes(t, base, start)

	walDir := filepath.Join(t.TempDir(), "wal")
	faulty := diskio.NewFaulty(diskio.OS{}, diskio.FaultPlan{FailEverySync: 3})
	crash, err := New(crashConfig(sites, walDir, start, faulty))
	if err != nil {
		t.Fatal(err)
	}
	streamEpoch(t, crash, sites, 0)
	if err := crash.DrainSource(); err != nil {
		t.Fatal(err)
	}
	if st := crash.SourceStats(); st.JournalErrors == 0 {
		t.Fatalf("no journal errors under injected fsync faults: %+v (faulty %+v)", st, faulty.Stats())
	}
	_ = crash.Source().Close()
	_ = crash.CloseDisk()

	rec, err := New(crashConfig(sites, walDir, start, nil))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 800 {
		t.Fatalf("recovered %d records, want 800 (fsync faults lose durability promises, not written bytes)", rs.Records)
	}
	if err := rec.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	got := rowBytes(t, rec, start)
	if !bytes.Equal(got["s0"], want["s0"]) {
		t.Error("recovered central tree differs from uninterrupted run under fsync faults")
	}
}

// TestCrashRecoveryAbsorbsTornTail appends a torn frame to the journals
// after the crash — the shape a mid-append power cut leaves — and checks
// recovery absorbs it as a counted truncation while reconstructing every
// whole record exactly.
func TestCrashRecoveryAbsorbsTornTail(t *testing.T) {
	sites := []string{"s0"}
	start := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

	base, err := New(crashConfig(sites, filepath.Join(t.TempDir(), "wal"), start, nil))
	if err != nil {
		t.Fatal(err)
	}
	streamEpoch(t, base, sites, 0)
	if err := base.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	want := rowBytes(t, base, start)

	walDir := filepath.Join(t.TempDir(), "wal")
	crash, err := New(crashConfig(sites, walDir, start, nil))
	if err != nil {
		t.Fatal(err)
	}
	streamEpoch(t, crash, sites, 0)
	if err := crash.DrainSource(); err != nil {
		t.Fatal(err)
	}
	_ = crash.Source().Close()
	_ = crash.CloseDisk()
	// Tear the tail: a frame header promising 48 body bytes, cut short.
	wals, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(wals) != 1 || !strings.HasSuffix(wals[0], "s0.wal") {
		t.Fatalf("wal files = %v, %v", wals, err)
	}
	f, err := os.OpenFile(wals[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xF7, 48, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := New(crashConfig(sites, walDir, start, nil))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 800 || rs.Truncated == 0 {
		t.Fatalf("recovered %d records, %d truncations; want 800 records and a counted tear", rs.Records, rs.Truncated)
	}
	if err := rec.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	got := rowBytes(t, rec, start)
	if !bytes.Equal(got["s0"], want["s0"]) {
		t.Error("recovered central tree differs from uninterrupted run after torn tail")
	}
}
