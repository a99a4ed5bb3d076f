// Package megadata's root benchmarks regenerate the measurable shape of
// every table and figure in the paper:
//
//	BenchmarkTable2_*              Table II  operator costs
//	BenchmarkFig1_HierarchyRollup  Fig. 1    per-level rollup (E10/E5)
//	BenchmarkFig3_ControlCycle     Fig. 3    trigger-to-actuation latency (E8)
//	BenchmarkFig4_HHHAccuracy      Fig. 4    summary accuracy harness (E4)
//	BenchmarkFig4_StorageStrategies Fig. 4   storage strategies (E6)
//	BenchmarkFig5_FlowstreamPipeline Fig. 5  end-to-end ingest (E2)
//	BenchmarkFig6_Replication*     Fig. 6    replication policies (E3)
//	BenchmarkSec5_SamplingAdapt    §V-B      toy primitive (E7)
//	BenchmarkAblation_*            design-choice ablations
package megadata

import (
	"fmt"
	"testing"
	"time"

	"megadata/internal/controller"
	"megadata/internal/datastore"
	"megadata/internal/flow"
	"megadata/internal/flowstream"
	"megadata/internal/flowtree"
	"megadata/internal/hierarchy"
	"megadata/internal/primitive"
	"megadata/internal/replication"
	"megadata/internal/storage"
	"megadata/internal/workload"
)

// genRecords produces a deterministic skewed trace.
func genRecords(b *testing.B, n int, skew float64) []flow.Record {
	b.Helper()
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 42, Skew: skew})
	if err != nil {
		b.Fatal(err)
	}
	return g.Records(n)
}

// buildTree ingests n records into a tree with the given budget.
func buildTree(b *testing.B, n, budget int) *flowtree.Tree {
	b.Helper()
	t, err := flowtree.New(budget)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range genRecords(b, n, 1.2) {
		t.Add(r)
	}
	return t
}

// --- Table II: one benchmark per Flowtree operator ---

func BenchmarkTable2_Add(b *testing.B) {
	for _, budget := range []int{0, 4096} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			recs := genRecords(b, 100000, 1.2)
			t, err := flowtree.New(budget)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Add(recs[i%len(recs)])
			}
		})
	}
}

func BenchmarkTable2_Query(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("flows=%d", size), func(b *testing.B) {
			t := buildTree(b, size, 0)
			recs := genRecords(b, 1000, 1.2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = t.Query(recs[i%len(recs)].Key)
			}
		})
	}
}

func BenchmarkTable2_Merge(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("flows=%d", size), func(b *testing.B) {
			src := buildTree(b, size, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst := buildTree(b, size, 0)
				b.StartTimer()
				if err := dst.Merge(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2_Compress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := buildTree(b, 20000, 0)
		b.StartTimer()
		t.CompressTo(1024)
	}
}

func BenchmarkTable2_Diff(b *testing.B) {
	other := buildTree(b, 10000, 0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := buildTree(b, 10000, 0)
		b.StartTimer()
		if err := t.Diff(other); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Drilldown(b *testing.B) {
	t := buildTree(b, 50000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Drilldown(flow.Root()); !ok {
			b.Fatal("root drilldown failed")
		}
	}
}

func BenchmarkTable2_TopK(b *testing.B) {
	t := buildTree(b, 50000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.TopK(10)
	}
}

func BenchmarkTable2_AboveX(b *testing.B) {
	t := buildTree(b, 50000, 0)
	x := t.Total().Bytes / 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.AboveX(x)
	}
}

func BenchmarkTable2_HHH(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("flows=%d", size), func(b *testing.B) {
			t := buildTree(b, size, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = t.HHH(0.01)
			}
		})
	}
}

// --- Fig. 1 / E10+E5: hierarchy rollup ---

func BenchmarkFig1_HierarchyRollup(b *testing.B) {
	for _, topo := range []struct {
		name    string
		build   func() (*hierarchy.Hierarchy, error)
		perLeaf int
	}{
		{name: "factory-3x4", build: func() (*hierarchy.Hierarchy, error) { return hierarchy.NewFactory(3, 4, 2048) }, perLeaf: 2000},
		{name: "network-3x8", build: func() (*hierarchy.Hierarchy, error) { return hierarchy.NewNetworkMonitoring(3, 8, 2048) }, perLeaf: 2000},
	} {
		b.Run(topo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h, err := topo.build()
				if err != nil {
					b.Fatal(err)
				}
				for j, leaf := range h.Leaves() {
					g, err := workload.NewFlowGen(workload.FlowConfig{Seed: int64(j + 1), Skew: 1.2})
					if err != nil {
						b.Fatal(err)
					}
					if err := h.IngestAtLeaf(leaf, g.Records(topo.perLeaf)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := h.Rollup(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 3 / E8: control cycle latency ---

func BenchmarkFig3_ControlCycle(b *testing.B) {
	store := datastore.New("edge", nil)
	err := store.Register(datastore.AggregatorConfig{
		Name: "temps",
		New: func() (primitive.Aggregator, error) {
			return primitive.NewStats("temps", time.Minute, 8, 0)
		},
		Strategy: datastore.StrategyRoundRobin, BudgetBytes: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Subscribe("m/temp", "temps"); err != nil {
		b.Fatal(err)
	}
	fired := 0
	ctl := controller.New("ctl", controller.ActuatorFunc(func(string, controller.Action, float64) {
		fired++
	}), nil)
	if err := ctl.Install(controller.Rule{
		Name: "stop", Trigger: "hot", Actuator: "m/motor",
		Action: controller.ActionStop, Priority: 1,
	}); err != nil {
		b.Fatal(err)
	}
	err = store.InstallTrigger(datastore.Trigger{
		Name: "hot", Stream: "m/temp",
		Condition: func(item any) bool {
			r, ok := item.(primitive.Reading)
			return ok && r.Value > 90
		},
		Fire: ctl.OnTrigger,
	})
	if err != nil {
		b.Fatal(err)
	}
	at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Full path: ingest -> aggregate -> trigger -> controller ->
		// actuator.
		if err := store.Ingest("m/temp", primitive.Reading{At: at, Value: 95}); err != nil {
			b.Fatal(err)
		}
	}
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// --- Fig. 4 / E4: accuracy harness cost ---

func BenchmarkFig4_HHHAccuracy(b *testing.B) {
	recs := genRecords(b, 30000, 1.2)
	for _, budget := range []int{256, 4096} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := flowtree.New(budget)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range recs {
					t.Add(r)
				}
				_ = t.HHH(0.01)
			}
		})
	}
}

// --- Fig. 4 / E6: storage strategies under sealing load ---

func BenchmarkFig4_StorageStrategies(b *testing.B) {
	t0 := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, strat := range []struct {
		name string
		cfg  datastore.AggregatorConfig
	}{
		{name: "expire", cfg: datastore.AggregatorConfig{Strategy: datastore.StrategyExpire, TTL: time.Hour}},
		{name: "roundrobin", cfg: datastore.AggregatorConfig{Strategy: datastore.StrategyRoundRobin, BudgetBytes: 1 << 16}},
		{name: "hierarchical", cfg: datastore.AggregatorConfig{
			Strategy: datastore.StrategyHierarchical,
			CoarseLevels: []storage.Level{
				{Width: time.Minute, BudgetBytes: 1 << 15},
				{Width: 10 * time.Minute, BudgetBytes: 1 << 15},
			},
		}},
	} {
		b.Run(strat.name, func(b *testing.B) {
			now := t0
			s := datastore.New("edge", func() time.Time { return now })
			cfg := strat.cfg
			cfg.Name = "temps"
			cfg.New = func() (primitive.Aggregator, error) {
				return primitive.NewStats("temps", time.Minute, 0, 64)
			}
			if err := s.Register(cfg); err != nil {
				b.Fatal(err)
			}
			if err := s.Subscribe("t", "temps"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Minute)
				for j := 0; j < 60; j++ {
					_ = s.Ingest("t", primitive.Reading{At: now, Value: float64(j)})
				}
				if err := s.Seal("temps"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 5 / E2: end-to-end Flowstream pipeline ---

// BenchmarkFig5_FlowstreamPipeline measures the Figure 5 path: ingest at
// every site, seal the epoch, export to the center, and answer one FlowQL
// query.
func BenchmarkFig5_FlowstreamPipeline(b *testing.B) {
	const flowsPerSite = 5000
	names := []string{"site0", "site1"}
	gens := make([]*workload.FlowGen, len(names))
	for i := range gens {
		g, err := workload.NewFlowGen(workload.FlowConfig{Seed: int64(i + 1), Skew: 1.2})
		if err != nil {
			b.Fatal(err)
		}
		gens[i] = g
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := flowstream.New(flowstream.Config{
			Sites: names, TreeBudget: 4096, Epoch: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for s, site := range names {
			if err := sys.Ingest(site, gens[s].Records(flowsPerSite)); err != nil {
				b.Fatal(err)
			}
		}
		if err := sys.EndEpoch(); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Query(`SELECT TOPK(10) FROM ALL`); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(names)*flowsPerSite), "flows/op")
}

// --- Sharded ingest: batched shard-partitioned ingest vs the serial path ---

// BenchmarkIngestSharded measures data-store ingest throughput on a
// budgeted Flowtree across shard counts. The serial baseline pushes one
// record per Ingest call through the single store mutex; the sharded runs
// push the same trace through IngestFlowBatch, which partitions each batch
// by flow-key hash across independently locked shards filled by parallel
// workers, with Flowtree compression deferred to batch boundaries.
//
// Shard workers run one goroutine per shard, so the speedup over serial
// scales with GOMAXPROCS; on a single-core host only the batch
// amortizations (one lock + one trigger/registry resolution per batch, no
// per-record interface boxing, per-batch compression over small
// cache-resident shard trees) remain, worth ~1.2-1.3x.
func BenchmarkIngestSharded(b *testing.B) {
	const nRecords = 100000
	recs := genRecords(b, nRecords, 1.2)
	newStore := func(b *testing.B, shards int) *datastore.Store {
		b.Helper()
		s := datastore.New("edge", nil, datastore.WithShards(shards))
		// Same configuration flowstream uses: the node budget is split
		// evenly across shards (constant live memory envelope), and
		// sealing bulk-merges the slices into one full-budget tree.
		const budget = 4096
		shardBudget := datastore.ShardBudget(budget, shards)
		err := s.Register(datastore.AggregatorConfig{
			Name: "flows",
			New: func() (primitive.Aggregator, error) {
				return primitive.NewFlowtree("flows", budget)
			},
			NewShard: func() (primitive.Aggregator, error) {
				return primitive.NewFlowtree("flows", shardBudget)
			},
			Strategy:    datastore.StrategyRoundRobin,
			BudgetBytes: 64 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Subscribe("router", "flows"); err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := newStore(b, 1)
			b.StartTimer()
			for _, r := range recs {
				if err := s.Ingest("router", r); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(nRecords*b.N)/b.Elapsed().Seconds(), "flows/s")
	})
	const batch = 2048
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := newStore(b, shards)
				b.StartTimer()
				for off := 0; off < len(recs); off += batch {
					end := off + batch
					if end > len(recs) {
						end = len(recs)
					}
					if err := s.IngestFlowBatch("router", recs[off:end]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(nRecords*b.N)/b.Elapsed().Seconds(), "flows/s")
		})
	}
}

// --- Fig. 6 / E3: replication policies over the enterprise trace ---

func BenchmarkFig6_Replication(b *testing.B) {
	trace, err := workload.NewQueryTrace(workload.QueryTraceConfig{Seed: 1, Partitions: 400})
	if err != nil {
		b.Fatal(err)
	}
	accesses := make([]replication.Access, len(trace.Accesses))
	for i, a := range trace.Accesses {
		accesses[i] = replication.Access{Partition: a.Partition, At: a.At, ResultVol: a.ResultVol}
	}
	dist, err := replication.FitDistAware(
		replication.VolumesOf(replication.TotalVolumes(accesses)), trace.Config.PartitionBytes)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []replication.Policy{
		replication.Never{}, replication.Always{}, replication.BreakEven{}, dist,
	} {
		b.Run(p.Name(), func(b *testing.B) {
			cfg := replication.SimConfig{PartitionBytes: trace.Config.PartitionBytes}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := replication.Simulate(cfg, p, accesses)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.CompetitiveRatio(), "ratio")
			}
		})
	}
}

// --- §V-B / E7: toy sampling primitive self-adaptation ---

func BenchmarkSec5_SamplingAdapt(b *testing.B) {
	s, err := primitive.NewSample("s", 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Add(primitive.Reading{At: at, Value: float64(i)})
		if i%1024 == 0 {
			s.Adapt(primitive.AdaptHint{TargetBytes: 24 << 10, InputPerSec: 1000})
		}
	}
}

// --- Ablations ---

// BenchmarkAblation_CompressPolicy compares compress targets: folding to
// 100% of budget (thrashes), 75% (default) and 50% (coarser but rare).
func BenchmarkAblation_CompressPolicy(b *testing.B) {
	recs := genRecords(b, 50000, 1.2)
	for _, target := range []float64{0.99, 0.75, 0.5} {
		b.Run(fmt.Sprintf("target=%.2f", target), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := flowtree.New(4096, flowtree.WithCompressTarget(target))
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range recs {
					t.Add(r)
				}
			}
		})
	}
}

// BenchmarkAblation_SkiRentalThreshold sweeps the volume-fraction
// threshold around the break-even point.
func BenchmarkAblation_SkiRentalThreshold(b *testing.B) {
	trace, err := workload.NewQueryTrace(workload.QueryTraceConfig{Seed: 9, Partitions: 300})
	if err != nil {
		b.Fatal(err)
	}
	accesses := make([]replication.Access, len(trace.Accesses))
	for i, a := range trace.Accesses {
		accesses[i] = replication.Access{Partition: a.Partition, At: a.At, ResultVol: a.ResultVol}
	}
	for _, p := range []float64{0.25, 0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("fraction=%.2f", p), func(b *testing.B) {
			cfg := replication.SimConfig{PartitionBytes: trace.Config.PartitionBytes}
			for i := 0; i < b.N; i++ {
				res, err := replication.Simulate(cfg, replication.VolumeFraction{P: p}, accesses)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.CompetitiveRatio(), "ratio")
			}
		})
	}
}

// BenchmarkAblation_StepBits compares generalization strides: 8-bit octet
// steps (domain knowledge) vs 4-bit (deeper chains, finer fold levels).
func BenchmarkAblation_StepBits(b *testing.B) {
	recs := genRecords(b, 20000, 1.2)
	for _, step := range []uint8{4, 8, 16} {
		b.Run(fmt.Sprintf("step=%d", step), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := flowtree.New(4096, flowtree.WithStepBits(step))
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range recs {
					t.Add(r)
				}
			}
		})
	}
}
