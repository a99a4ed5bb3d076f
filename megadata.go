// Package megadata is a reproduction of "Distributed Mega-Datasets: The
// Need for Novel Computing Primitives" (Semmler, Smaragdakis, Feldmann;
// IEEE ICDCS 2019): an architecture for processing sensor data streams
// whose aggregate rate exceeds what can be stored or shipped, built from
// hierarchical data stores, combinable computing primitives (most notably
// Flowtree), trigger-driven controllers, a manager control plane, and
// ski-rental adaptive replication for cross-site queries.
//
// The root package re-exports the main entry points; the full surface
// lives in the internal packages (importable inside this module):
//
//   - internal/flowtree: the Flowtree primitive with all Table II operators
//   - internal/primitive: the computing-primitive abstraction and
//     implementations (sampling, statistics, heavy hitters, HHH, Flowtree)
//   - internal/datastore: data stores with triggers, the three Section IV
//     storage strategies, and sharded concurrent ingest (WithShards +
//     IngestBatch/IngestFlowBatch)
//   - internal/flowdb, internal/flowql: the FlowDB engine and the FlowQL
//     query language
//   - internal/flowstream: the complete Figure 5 pipeline
//   - internal/replication: Section VII ski-rental adaptive replication
//   - internal/manager, internal/controller, internal/analytics: the control
//     plane, local control logic and analytics pipelines
//   - internal/hierarchy: the Figure 1 factory and network topologies over a
//     simulated WAN
//   - internal/workload: synthetic flow traces, factory sensors and
//     enterprise query traces
//
// # Sharded ingest
//
// The ingest hot path is sharded: a data store built with
// datastore.WithShards(n) partitions every stream across n independently
// locked instances of each subscribed primitive (flow records by key hash,
// so a flow always lands on the same shard), and the batch APIs
// (Store.IngestBatch, Store.IngestFlowBatch, flowstream's
// System.IngestBatch) fill the shards with parallel workers while
// amortizing locking, trigger resolution and Flowtree compression over
// whole batches. Epoch sealing, queries and exports fan the shards back
// together with the primitive's Merge — the paper's combinable-summaries
// property ("A12 = compress(A1 ∪ A2)") is what makes the sharded pipeline
// answer queries identically to the serial one, a property pinned down by
// equivalence tests in internal/datastore and internal/flowstream. The
// knobs are flowstream.Config.Shards and Config.BatchSize; each shard gets
// an equal slice of the Flowtree node budget, so live memory stays that of
// one budgeted tree.
//
// A minimal end-to-end use — build a Flowstream deployment, ingest flows,
// and ask FlowQL for the heavy hitters:
//
//	sys, err := flowstream.New(flowstream.Config{
//		Sites:  []string{"edge0"},
//		Shards: 4, // concurrent ingest shards per site
//	})
//	...
//	_ = sys.IngestBatch("edge0", records)
//	_ = sys.EndEpoch()
//	res, err := sys.Query(`SELECT HHH(0.05) FROM ALL`)
//
// # Table I: challenges and where they are addressed
//
// The paper's nine challenges, the mechanism that answers each, and the
// module implementing it:
//
//  1. Increasing computation requirements: aggregate at the source with
//     budgeted primitives (internal/primitive, internal/flowtree).
//  2. Many devices producing streams: per-stream subscriptions into shared
//     data stores (internal/datastore, Store.Subscribe).
//  3. Massive combined data rates: summaries capped by node and byte
//     budgets before export (internal/flowtree, Tree.Compress).
//  4. Rapid local decision making: triggers fire the local controller on
//     the ingest path (internal/datastore triggers, internal/controller).
//  5. High data variability: one Aggregator interface, five summary kinds
//     (internal/primitive).
//  6. Analytics require full knowledge: mergeable summaries roll up to
//     global views (internal/hierarchy, Hierarchy.Rollup; internal/flowdb).
//  7. Hierarchical structure: site trees over a metered WAN
//     (internal/hierarchy, internal/simnet).
//  8. Varying requirements across applications: the manager splits budgets
//     by application weights (internal/manager, Manager.Require and Apply).
//  9. A priori unknown queries: generic summaries plus FlowQL over stored
//     epochs (internal/flowql; internal/datastore, Store.Query).
//
// See examples/ for runnable programs.
package megadata

// Version is the library version.
const Version = "0.1.0"
