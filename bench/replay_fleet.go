package main

import (
	"fmt"
	"runtime"
	"time"

	"megadata/internal/flowdb"
	"megadata/internal/flowql"
	"megadata/internal/flowtree"
	"megadata/internal/simnet"
)

// fleetReplay replays fleet_epochs through the public functions a fleet hop
// is made of — Tree.AddBatch at the leaves; AppendDeltaOrFull, Transfer,
// DecodeDelta and Merge up to the aggregators; CompressTo, the same codec
// and DB.Insert up to central — on a fault-free virtual WAN. Faults only
// move frames between epochs, so central's totals still equal the real
// run's after its Drain.
type fleetReplay struct {
	*ledger
	p      params
	in     [][]epochData
	net    *simnet.Network
	db     *flowdb.DB
	viewDB *flowdb.DB
	sub    *flowql.Subscription

	leafBase, leafRecon []*flowtree.Tree // per leaf: delta chain sender / receiver side
	aggBase, aggRecon   []*flowtree.Tree // per aggregator
	aggLive             []*flowtree.Tree
}

func newFleetReplay(p params, in [][]epochData, tr *tracer) (*fleetReplay, error) {
	aggs := p.Fanout[0]
	rp := &fleetReplay{ledger: newLedger(tr), p: p, in: in, net: simnet.NewNetwork(), db: flowdb.New(), viewDB: flowdb.New(),
		leafBase: make([]*flowtree.Tree, p.Leaves), leafRecon: make([]*flowtree.Tree, p.Leaves),
		aggBase: make([]*flowtree.Tree, aggs), aggRecon: make([]*flowtree.Tree, aggs), aggLive: make([]*flowtree.Tree, aggs)}
	link := fleetConfig(p).Link
	link.FailEvery = 0
	rp.net.AddSite("central")
	for a := 0; a < aggs; a++ {
		id := simnet.SiteID(fmt.Sprintf("n%d", a))
		rp.net.AddSite(id)
		if err := rp.net.Connect(id, "central", link); err != nil {
			return nil, err
		}
		for l := 0; l < p.Leaves/aggs; l++ {
			leaf := simnet.SiteID(fmt.Sprintf("n%d.%d", a, l))
			rp.net.AddSite(leaf)
			if err := rp.net.Connect(leaf, id, link); err != nil {
				return nil, err
			}
		}
		var err error
		if rp.aggLive[a], err = flowtree.New(0); err != nil {
			return nil, err
		}
	}
	var err error
	rp.sub, err = flowql.Subscribe(rp.viewDB, `SELECT QUERY AT n0 FROM ALL`,
		flowql.SubConfig{Policy: flowql.PolicyDrop, Window: epochWidth})
	return rp, err
}

func (rp *fleetReplay) close() {
	rp.sub.Close()
	rp.tr.end(rp.root)
}

// hop ships one sealed tree up one link: delta-encode against the sender's
// chain tail, transfer, delta-decode onto the receiver's reconstruction.
func (rp *fleetReplay) hop(tree *flowtree.Tree, base, recon **flowtree.Tree, from, to simnet.SiteID) (*flowtree.Tree, error) {
	nodes := tree.Len()
	var wire []byte
	if err := rp.do("flowtree.encode_delta", nodes, &rp.sealNs, func() error {
		wire, _ = tree.AppendDeltaOrFull(nil, *base, 0.5)
		return nil
	}); err != nil {
		return nil, err
	}
	if *base != nil {
		full, err := tree.WireSizeBytes(2)
		if err != nil {
			return nil, err
		}
		rp.v2Bytes += int(full)
		rp.v3Bytes += len(wire)
	}
	*base = tree
	if err := rp.do("simnet.transfer", 1, &rp.sealNs, func() error {
		d, err := rp.net.Transfer(from, to, uint64(len(wire)))
		rp.virtualNs += d
		return err
	}); err != nil {
		return nil, err
	}
	err := rp.do("flowtree.decode_delta", nodes, &rp.sealNs, func() (err error) {
		*recon, err = flowtree.DecodeDelta(wire, *recon, 0)
		return err
	})
	return *recon, err
}

func (rp *fleetReplay) epoch(e int) error {
	p := rp.p
	perAgg := p.Leaves / p.Fanout[0]
	start := epoch0.Add(time.Duration(e) * epochWidth)
	sealed := make([]*flowtree.Tree, p.Leaves)
	records := 0
	for l := range sealed {
		tree, err := flowtree.New(p.LeafBudget)
		if err != nil {
			return err
		}
		recs := rp.in[l][e%len(rp.in[l])].recs
		records += len(recs)
		if err := rp.do("flowtree.addbatch", len(recs), &rp.ingestNs, func() error { tree.AddBatch(recs); return nil }); err != nil {
			return err
		}
		sealed[l] = tree
	}
	for l, tree := range sealed {
		a := l / perAgg
		agg := simnet.SiteID(fmt.Sprintf("n%d", a))
		leaf := simnet.SiteID(fmt.Sprintf("n%d.%d", a, l%perAgg))
		recon, err := rp.hop(tree, &rp.leafBase[l], &rp.leafRecon[l], leaf, agg)
		if err != nil {
			return err
		}
		if err := rp.do("flowtree.merge", recon.Len(), &rp.sealNs, func() error { return rp.aggLive[a].Merge(recon) }); err != nil {
			return err
		}
	}
	for a := range rp.aggLive {
		agg := simnet.SiteID(fmt.Sprintf("n%d", a))
		tree := rp.aggLive[a]
		var err error
		if rp.aggLive[a], err = flowtree.New(0); err != nil {
			return err
		}
		if err := rp.do("flowtree.compress", tree.Len(), &rp.sealNs, func() error { tree.CompressTo(p.AggBudget); return nil }); err != nil {
			return err
		}
		recon, err := rp.hop(tree, &rp.aggBase[a], &rp.aggRecon[a], agg, "central")
		if err != nil {
			return err
		}
		row := flowdb.Row{Location: string(agg), Start: start, Width: epochWidth, Tree: recon}
		if err := rp.do("flowdb.insert_views", 1, &rp.sealNs, func() error { return rp.viewDB.Insert(row) }); err != nil {
			return err
		}
		if err := rp.do("flowdb.insert", 1, nil, func() error { return rp.db.Insert(row) }); err != nil {
			return err
		}
		// The full-frame codec is not on the fleet's path (DeltaExports is
		// on); it is timed beside it on the aggregator frames.
		var wire []byte
		if err := rp.do("flowtree.encode", tree.Len(), nil, func() error { wire = tree.AppendBinary(nil); return nil }); err != nil {
			return err
		}
		if err := rp.do("flowtree.decode", tree.Len(), nil, func() error { _, err := flowtree.Decode(wire, 0); return err }); err != nil {
			return err
		}
		rp.wireBytes += len(wire)
		rp.wireNodes += tree.Len()
	}
	rp.closeEpoch(records)
	return nil
}

// treeOps times clone and top-k on a merge of replayed central rows.
func (rp *fleetReplay) treeOps() error {
	rows := rp.db.Rows()
	rows = rows[:min(len(rows), 16)]
	for rep := 0; rep < 3; rep++ {
		merged := rows[0].Tree.Clone()
		for _, r := range rows[1:] {
			if err := merged.Merge(r.Tree); err != nil {
				return err
			}
		}
		if err := rp.do("flowtree.clone", merged.Len(), nil, func() error { _ = merged.Clone(); return nil }); err != nil {
			return err
		}
		if err := rp.do("flowtree.topk", merged.Len(), nil, func() error { _ = merged.TopK(40); return nil }); err != nil {
			return err
		}
	}
	return nil
}

// fleetLedger replays the traced fleet run's input and assembles the
// per-layer metrics.
func fleetLedger(o *outcome, r *fleetRun, check []string) error {
	p := o.p
	real, err := centralOf(r.fl.DB, 1)
	if err != nil {
		return err
	}
	nst := r.fl.Net.TotalStats()
	rows, droppedFrames, droppedExports := r.fl.DB.Len(), r.fl.DroppedFrames(), r.fl.DroppedExports()
	r.close()
	r.fl = nil // the replay runs with the fleet's heap gone
	runtime.GC()

	rp, err := newFleetReplay(p, r.in, r.tr)
	if err != nil {
		return err
	}
	defer rp.close()
	for e := 0; e < p.Epochs; e++ {
		if err := rp.epoch(e); err != nil {
			return err
		}
	}
	replayed, err := centralOf(rp.db, 1)
	if err != nil {
		return err
	}
	// Drain ships amendment rows the fault-free replay never needs, so row
	// counts differ by design; the totals may not.
	replayed.rows = real.rows
	if err := sameCentral(real, replayed); err != nil {
		return err
	}
	if err := rp.treeOps(); err != nil {
		return err
	}
	if err := rp.queries(rp.db, check, 1, p.Scale, false); err != nil {
		return err
	}

	m := make(map[string]float64, len(perLayer))
	o.layer = m
	in, q := &o.ingest, &o.query
	ingestReal := per(float64(in.ingestCost.CPU), in.records)
	sealReal := median(in.sealByEpoch)
	queryReal := per(float64(q.cost.CPU), q.n)

	m["federation.ingest_ns_per_record"] = ingestReal
	m["federation.endepoch_ms_p50"] = median(in.endMs)
	m["federation.drain_ms"] = median(in.drainMs)
	m["federation.reexport_frames"] = float64(nst.Failures)
	m["federation.pending_exports_max"] = float64(r.pendingMax)
	m["federation.dropped_frames"] = float64(droppedFrames)
	m["federation.dropped_exports"] = float64(droppedExports)
	m["federation.wan_bytes_per_epoch"] = per(float64(nst.Bytes), in.epochs)

	rp.treeMetrics(m)

	m["simnet.transfer_bytes"] = float64(nst.Bytes)
	m["simnet.attempts"] = float64(nst.Attempts)
	m["simnet.failures"] = float64(nst.Failures)
	m["simnet.virtual_ms_per_epoch"] = per(ms(nst.Time), in.epochs)
	m["simnet.transfer_ns_per_call"] = rp.acc("simnet.transfer").cpuNs()

	frames := float64(p.Fanout[0])
	insert := rp.acc("flowdb.insert").cpuNs()
	viewMaint := rp.ledger.net("flowdb.insert_views", "flowdb.insert")
	m["flowdb.insert_ms_per_epoch"] = frames * insert / 1e6
	m["flowdb.view_maint_ms_per_epoch"] = frames * viewMaint / 1e6
	m["flowdb.view_recomputes"] = float64(rp.sub.View().Recomputes())
	m["flowdb.rows"] = float64(rows)
	rp.queryMetrics(m, o.hitRatio)
	selWarm, selCold := rp.acc("flowdb.select_warm").cpuNs(), rp.acc("flowdb.select_cold").cpuNs()
	parse, execute, jsonNs := rp.acc("flowql.parse").cpuNs(), rp.acc("flowql.execute").cpuNs(), rp.acc("flowql.json").cpuNs()

	clientMetrics(m, o)
	runtimeMetrics(m, o)

	ingestPath, sealPath := mean(rp.ingestByEpoch), median(rp.sealByEpoch)
	queryPath := parse + execute + jsonNs + (1-o.hitRatio)*(selCold-selWarm)
	m["ledger.ingest_coverage"] = ingestPath / ingestReal
	m["ledger.seal_coverage"] = sealPath / sealReal
	m["ledger.query_coverage"] = queryPath / queryReal

	o.notes = []string{
		fmt.Sprintf("ingest, CPU ns per record: Fleet.Ingest %.0f, replayed Tree.AddBatch %.0f", ingestReal, ingestPath),
		fmt.Sprintf("seal, CPU us per epoch: Fleet.EndEpoch %.0f, replayed path %.0f (delta encode, transfer, delta decode, merge, compress, insert with views)", sealReal/1e3, sealPath/1e3),
		fmt.Sprintf("query, CPU us per query: run %.0f, replayed path %.0f = parse %.1f + execute %.0f (Select warm %.0f, cold %.0f at hit %.3f) + json %.1f",
			queryReal/1e3, queryPath/1e3, parse/1e3, execute/1e3, selWarm/1e3, selCold/1e3, o.hitRatio, jsonNs/1e3),
	}
	records, epochs := float64(in.records), float64(in.epochs)
	codec := epochs * (per(float64(rp.acc("flowtree.encode_delta").c.CPU+rp.acc("flowtree.decode_delta").c.CPU), in.epochs))
	o.shares = layerShares(map[string]float64{
		"flowtree (leaf AddBatch)":        records * rp.acc("flowtree.addbatch").cpuNs(),
		"flowtree (merge, compress)":      float64(rp.acc("flowtree.merge").c.CPU + rp.acc("flowtree.compress").c.CPU),
		"flowtree (delta codec)":          codec,
		"simnet":                          float64(rp.acc("simnet.transfer").c.CPU),
		"flowdb":                          float64(rp.acc("flowdb.insert_views").c.CPU),
		"federation (EndEpoch remainder)": max(epochs*(sealReal-sealPath), 0),
	})
	return nil
}
