package flowstream

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"megadata/internal/flowsource"
	"megadata/internal/workload"
)

// BenchmarkWALIngest measures what crash safety costs on the streaming
// ingest leg: the same framed trace is consumed by a one-site System once
// with no journal and once with Config.WALDir set, so every record is
// appended to the site's write-ahead log (fsync'd every WALSyncEvery
// records) before it reaches the store. Best of five interleaved passes per
// cadence: the fsync cost is at the mercy of the host's page cache, so a
// single pass is too noisy to assert on. The WAL'd path must hold at least
// 0.8x of the in-memory path.
//
// The measurement needs two procs: a blocking fsync strands a lone P in
// the syscall until sysmon retakes it — milliseconds per sync in which
// neither the decoder nor the sink runs — so single-proc the WAL pays its
// full fsync latency on the critical path (~0.7x) while any second proc
// lets the fsync overlap ingest (~0.95x). A durable deployment needs
// GOMAXPROCS >= 2; the floor applies to that supported configuration.
func BenchmarkWALIngest(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("WAL'd ingest is only supported, and only measured, at GOMAXPROCS >= 2")
	}
	const nRecords = 500_000
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 42, Skew: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	wire := make([]byte, 0, nRecords*36)
	for _, r := range g.Records(nRecords) {
		wire = flowsource.AppendFrame(wire, r)
	}
	// pass streams the whole trace through a fresh System and returns
	// records per second; walDir "" is the in-memory configuration.
	pass := func(b *testing.B, walDir string, syncEvery int) float64 {
		sys, err := New(Config{
			Sites:        []string{"edge"},
			TreeBudget:   4096,
			Source:       &flowsource.Config{MaxBatch: 4096, ChannelDepth: 4},
			WALDir:       walDir,
			WALSyncEvery: syncEvery,
		})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if err := sys.ConsumeStream("edge", bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
		if err := sys.DrainSource(); err != nil {
			b.Fatal(err)
		}
		rps := nRecords / time.Since(start).Seconds()
		if err := sys.Source().Close(); err != nil {
			b.Fatal(err)
		}
		if err := sys.CloseDisk(); err != nil {
			b.Fatal(err)
		}
		if st := sys.SourceStats(); st.Delivered != nRecords || st.JournalErrors != 0 {
			b.Fatalf("delivered %d of %d records, %d journal errors", st.Delivered, nRecords, st.JournalErrors)
		}
		return rps
	}
	for _, syncEvery := range []int{256, 4096} {
		b.Run(fmt.Sprintf("sync=%d", syncEvery), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var memBest, walBest float64
				for rep := 0; rep < 5; rep++ {
					memBest = max(memBest, pass(b, "", 0))
					dir := b.TempDir()
					walBest = max(walBest, pass(b, dir, syncEvery))
					// One pass leaves the whole trace journaled; do not
					// let ten of them pile up until the benchmark ends.
					if err := os.RemoveAll(dir); err != nil {
						b.Fatal(err)
					}
				}
				ratio := walBest / memBest
				b.ReportMetric(walBest, "wal_rec/s")
				b.ReportMetric(memBest, "mem_rec/s")
				b.ReportMetric(ratio, "wal/mem")
				if ratio < 0.8 {
					b.Fatalf("WAL'd ingest %.0f rec/s is %.2fx the in-memory %.0f rec/s (want >= 0.8x)",
						walBest, ratio, memBest)
				}
			}
		})
	}
}
