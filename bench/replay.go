package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowdb"
	"megadata/internal/flowql"
	"megadata/internal/flowserve"
	"megadata/internal/flowsource"
	"megadata/internal/flowstream"
	"megadata/internal/flowtree"
	"megadata/internal/primitive"
	"megadata/internal/simnet"
	"megadata/internal/storage/disk"
)

// The stage replay pushes the traced run's own input, serially, through the
// public functions of each layer in pipeline order, one span per call
// batch. Nothing inside a layer is touched: a stage is what a caller of the
// layer can see. A stage's figure is the process CPU time (user+sys, every
// thread) charged while it ran, divided by the units it processed; stages
// that contain other stages are reported net of them (the formulas are in
// metrics below and in README "The stage ledger").

// stageAcc accumulates one stage over all its call batches.
type stageAcc struct {
	units int
	c     cost
	calls []float64 // wall ms per measured call, where a p50 is reported
}

func (a *stageAcc) cpuNs() float64      { return per(float64(a.c.CPU), a.units) }
func (a *stageAcc) cpuMs() float64      { return a.cpuNs() / 1e6 }
func (a *stageAcc) mallocsPer() float64 { return per(float64(a.c.Mallocs), a.units) }
func (a *stageAcc) bytesPer() float64   { return per(float64(a.c.Bytes), a.units) }

// ledger runs stages and keeps their accounts.
type ledger struct {
	tr     *tracer
	root   int
	st     map[string]*stageAcc
	merged []float64 // summaries merged per replayed query

	// The pipeline's path: the open epoch's CPU on the ingest stages and
	// on the export stages, and the closed epochs' figures (ingest CPU ns
	// per record, export CPU ns).
	ingestNs, sealNs           time.Duration
	ingestByEpoch, sealByEpoch []float64

	// Byte and node counts of the replayed frames: full (v2) frames and
	// their nodes, the v2 and v3 sizes of every frame that had a base to
	// delta against, and the virtual time the WAN charged.
	wireBytes, wireNodes, v2Bytes, v3Bytes int
	virtualNs                              time.Duration
}

// closeEpoch books the open epoch's path cost over the records it ingested.
func (l *ledger) closeEpoch(records int) {
	l.ingestByEpoch = append(l.ingestByEpoch, per(float64(l.ingestNs), records))
	l.sealByEpoch = append(l.sealByEpoch, float64(l.sealNs))
	l.ingestNs, l.sealNs = 0, 0
}

func newLedger(tr *tracer) *ledger {
	return &ledger{tr: tr, root: tr.begin("replay", 0, "replay"), st: make(map[string]*stageAcc)}
}

func (l *ledger) acc(name string) *stageAcc {
	a, ok := l.st[name]
	if !ok {
		a = &stageAcc{}
		l.st[name] = a
	}
	return a
}

// do runs one call batch of a stage that processes `units` units. A stage
// on the pipeline's path passes onPath, which is charged the batch's CPU:
// that is how one epoch's replayed cost is summed.
func (l *ledger) do(name string, units int, onPath *time.Duration, fn func() error) error {
	id := l.tr.begin(name, l.root, "replay")
	u := usageNow()
	err := fn()
	c := u.since()
	l.tr.stage(id, units, c.CPU)
	a := l.acc(name)
	a.units += units
	a.c.add(c)
	if onPath != nil {
		*onPath += c.CPU
	}
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	return nil
}

// net returns stage a's per-unit CPU ns minus the stages it contains.
func (l *ledger) net(a string, inner ...string) float64 {
	v := l.acc(a).cpuNs()
	for _, in := range inner {
		v -= l.acc(in).cpuNs()
	}
	return max(v, 0)
}

func (l *ledger) netMallocs(a string, inner ...string) float64 {
	v := l.acc(a).mallocsPer()
	for _, in := range inner {
		v -= l.acc(in).mallocsPer()
	}
	return max(v, 0)
}

// treeMetrics reports the Flowtree stages every replay times.
func (l *ledger) treeMetrics(m map[string]float64) {
	for _, stage := range []string{"addbatch", "compress", "merge", "clone", "topk", "encode", "encode_delta", "decode", "decode_delta"} {
		unit := "node"
		if stage == "addbatch" {
			unit = "record"
		}
		m["flowtree."+stage+"_ns_per_"+unit] = l.acc("flowtree." + stage).cpuNs()
	}
	m["flowtree.clone_bytes_per_node"] = l.acc("flowtree.clone").bytesPer()
	m["flowtree.wire_bytes_per_node"] = per(float64(l.wireBytes), l.wireNodes)
	m["flowtree.delta_bytes_ratio"] = per(float64(l.v3Bytes), l.v2Bytes)
}

// queryMetrics reports the Select, operator and JSON stages of the replayed
// statement list.
func (l *ledger) queryMetrics(m map[string]float64, hitRatio float64) {
	cold, warm := l.acc("flowdb.select_cold"), l.acc("flowdb.select_warm")
	m["flowdb.select_cold_ms_p50"] = median(cold.calls)
	m["flowdb.select_cold_allocs"] = cold.mallocsPer()
	m["flowdb.select_warm_ms_p50"] = median(warm.calls)
	m["flowdb.select_warm_allocs"] = warm.mallocsPer()
	m["flowdb.select_warm_bytes"] = warm.bytesPer()
	m["flowdb.cache_hit_ratio"] = hitRatio
	m["flowdb.trees_merged_per_query"] = mean(l.merged)
	m["flowql.parse_ns_per_query"] = l.acc("flowql.parse").cpuNs()
	m["flowql.operate_ns_per_query"] = l.net("flowql.execute", "flowdb.select_warm")
	m["flowql.json_ns_per_query"] = l.acc("flowql.json").cpuNs()
	m["flowql.json_allocs_per_query"] = l.acc("flowql.json").mallocsPer()
	m["flowql.json_bytes_per_query"] = l.acc("flowql.json").bytesPer()
}

// treeOf unwraps the sealed summary a site store hands to the export path.
func treeOf(a primitive.Aggregator) (*flowtree.Tree, error) {
	ft, ok := a.(*primitive.FlowtreeAggregator)
	if !ok {
		return nil, fmt.Errorf("sealed aggregator is %T, want a flowtree", a)
	}
	return ft.Tree(), nil
}

// sockReplay is the replayed pipeline of a socket workload: a second system
// with the run's configuration, driven stage by stage.
type sockReplay struct {
	*ledger
	p   params
	in  *sockInput
	sys *flowstream.System // stores, virtual WAN and plain FlowDB
	// viewDB holds the same rows with the workload's standing query
	// subscribed, so view maintenance is insert-with-views minus insert.
	viewDB *flowdb.DB
	sub    *flowql.Subscription
	agg    string
	epoch  int

	consume *flowsource.Source // no-op sink, fed from memory
	socket  *flowsource.Source // no-op sink, fed through a loopback IngestServer
	ingest  *flowserve.IngestServer
	conns   []net.Conn
	sockets uint64

	wal    *disk.WALSet
	walDir string

	prev, prevRecon   []*flowtree.Tree // per site: last sealed tree, last delta reconstruction
	walBytes, walRecs int              // journaled frame bytes and records
	ingestRecs        int              // records the open epoch ingested
}

func noopSource() (*flowsource.Source, error) {
	return flowsource.New(flowsource.Config{Sink: func(string, [][]flow.Record) error { return nil }})
}

func newSockReplay(p params, in *sockInput, tr *tracer) (*sockReplay, error) {
	sys, err := flowstream.New(flowstream.Config{
		Sites: p.Sites, TreeBudget: p.Budget, Epoch: epochWidth, Start: epoch0, Shards: p.Shards,
	})
	if err != nil {
		return nil, err
	}
	rp := &sockReplay{ledger: newLedger(tr), p: p, in: in, sys: sys, viewDB: flowdb.New(),
		prev: make([]*flowtree.Tree, len(p.Sites)), prevRecon: make([]*flowtree.Tree, len(p.Sites))}
	st, err := sys.Store(p.Sites[0])
	if err != nil {
		return nil, err
	}
	rp.agg = st.Aggregators()[0]
	if rp.sub, err = flowql.Subscribe(rp.viewDB, in.sub, flowql.SubConfig{Policy: flowql.PolicyDrop}); err != nil {
		return nil, err
	}
	if rp.consume, err = noopSource(); err != nil {
		return nil, err
	}
	if rp.socket, err = noopSource(); err != nil {
		return nil, err
	}
	if rp.ingest, err = flowserve.NewIngest(flowserve.IngestConfig{Source: rp.socket}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go rp.ingest.Serve(ln)
	if p.Epochs > 0 {
		for _, site := range p.Sites {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err == nil {
				err = flowserve.WritePreamble(conn, site)
			}
			if err != nil {
				rp.close()
				return nil, err
			}
			rp.conns = append(rp.conns, conn)
		}
	}
	if p.WAL {
		if rp.walDir, err = os.MkdirTemp(".bench_build", "replay-wal-"); err != nil {
			rp.close()
			return nil, err
		}
		if rp.wal, err = disk.OpenWALSet(nil, filepath.Join(rp.walDir, "wal"), 256); err != nil {
			rp.close()
			return nil, err
		}
	}
	return rp, nil
}

func (rp *sockReplay) close() {
	for _, c := range rp.conns {
		c.Close()
	}
	rp.ingest.Close()
	rp.socket.Close()
	rp.consume.Close()
	rp.sub.Close()
	if rp.wal != nil {
		rp.wal.Close()
	}
	if rp.walDir != "" {
		os.RemoveAll(rp.walDir)
	}
	rp.tr.end(rp.root)
}

// batchSize is flowstream's default Config.BatchSize, which is also the
// source's MaxBatch: the unit the fold is handed.
const batchSize = 4096

// ingestEpoch replays one site's epoch through the ingest stages. Preload
// epochs have no wire form: they entered through System.IngestBatch and are
// replayed the same way.
func (rp *sockReplay) ingestEpoch(site int, d *epochData) error {
	name := rp.p.Sites[site]
	n := len(d.recs)
	rp.ingestRecs += n
	recs := d.recs
	if d.wire != nil {
		// flowsource.decode: the FrameReader.Next loop.
		recs = make([]flow.Record, 0, n)
		if err := rp.do("flowsource.decode", n, nil, func() error {
			fr := flowsource.NewFrameReader(bytes.NewReader(d.wire))
			for {
				rec, err := fr.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				recs = append(recs, rec)
			}
		}); err != nil {
			return err
		}
		if len(recs) != n {
			return fmt.Errorf("replay decode: %d of %d records", len(recs), n)
		}
		// flowsource.consume = decode + batching into a no-op sink.
		if err := rp.do("flowsource.consume", n, nil, func() error {
			if err := rp.consume.Consume(name, bytes.NewReader(d.wire)); err != nil {
				return err
			}
			return rp.consume.Drain()
		}); err != nil {
			return err
		}
		// flowserve.ingest = the same bytes through a loopback connection
		// and the IngestServer into the same no-op sink.
		if err := rp.do("flowserve.ingest", n, &rp.ingestNs, func() error {
			if _, err := rp.conns[site].Write(d.wire); err != nil {
				return err
			}
			rp.sockets += uint64(n)
			for rp.socket.Stats().Frames < rp.sockets {
				time.Sleep(200 * time.Microsecond)
			}
			return rp.socket.Drain()
		}); err != nil {
			return err
		}
	}
	st, err := rp.sys.Store(name)
	if err != nil {
		return err
	}
	bare, err := flowtree.New(rp.p.Budget)
	if err != nil {
		return err
	}
	for lo := 0; lo < n; lo += batchSize {
		batch := recs[lo:min(lo+batchSize, n)]
		if rp.wal != nil && d.wire != nil {
			if err := rp.do("storage.wal_append", len(batch), &rp.ingestNs, func() error { return rp.wal.Append(name, batch) }); err != nil {
				return err
			}
		}
		// datastore.fold: IngestFlowParts on a pre-partitioned batch
		// (IngestFlowBatch for preload epochs, which is how they entered).
		if err := rp.do("datastore.fold", len(batch), &rp.ingestNs, func() error {
			if d.wire == nil {
				return st.IngestFlowBatch("router", batch)
			}
			parts := make([][]flow.Record, st.Shards())
			if len(parts) == 1 {
				parts[0] = batch
			} else {
				for _, r := range batch {
					si := st.FlowShard(r)
					parts[si] = append(parts[si], r)
				}
			}
			return st.IngestFlowParts("router", parts)
		}); err != nil {
			return err
		}
		// flowtree.addbatch: what the fold spends inside the tree.
		if err := rp.do("flowtree.addbatch", len(batch), nil, func() error { bare.AddBatch(batch); return nil }); err != nil {
			return err
		}
	}
	if rp.wal != nil && d.wire != nil {
		// The journal frames records with the same codec as the wire.
		rp.walBytes += len(d.wire)
		rp.walRecs += n
	}
	return nil
}

// sealEpoch replays EndEpoch for every site: seal, encode, transfer,
// decode, then one InsertBatch.
func (rp *sockReplay) sealEpoch() error {
	start := epoch0.Add(time.Duration(rp.epoch) * epochWidth)
	rp.sys.Clock.AdvanceTo(start.Add(epochWidth))
	rows := make([]flowdb.Row, 0, len(rp.p.Sites))
	for i, name := range rp.p.Sites {
		st, err := rp.sys.Store(name)
		if err != nil {
			return err
		}
		var tree *flowtree.Tree
		if err := rp.do("datastore.seal", 1, &rp.sealNs, func() error {
			sealed, err := st.SealExport(rp.agg)
			if err != nil {
				return err
			}
			tree, err = treeOf(sealed)
			return err
		}); err != nil {
			return err
		}
		if rp.wal != nil {
			if err := rp.do("storage.wal_seal", 1, &rp.sealNs, func() error { return rp.wal.Seal(name) }); err != nil {
				return err
			}
		}
		nodes := tree.Len()
		var wire []byte
		if err := rp.do("flowtree.encode", nodes, &rp.sealNs, func() error { wire = tree.AppendBinary(nil); return nil }); err != nil {
			return err
		}
		if err := rp.do("simnet.transfer", 1, &rp.sealNs, func() error {
			d, err := rp.sys.Net.Transfer(simnet.SiteID(name), "central", uint64(len(wire)))
			rp.virtualNs += d
			return err
		}); err != nil {
			return err
		}
		var central *flowtree.Tree
		if err := rp.do("flowtree.decode", nodes, &rp.sealNs, func() (err error) {
			central, err = flowtree.Decode(wire, 0)
			return err
		}); err != nil {
			return err
		}
		rows = append(rows, flowdb.Row{Location: name, Start: start, Width: epochWidth, Tree: central})
		// The v3 delta codec is not on this path (flowserved ships full
		// frames); it is timed beside it so every workload reports it.
		var delta []byte
		if err := rp.do("flowtree.encode_delta", nodes, nil, func() error {
			delta, _ = tree.AppendDeltaOrFull(nil, rp.prev[i], 0.5)
			return nil
		}); err != nil {
			return err
		}
		if err := rp.do("flowtree.decode_delta", nodes, nil, func() (err error) {
			rp.prevRecon[i], err = flowtree.DecodeDelta(delta, rp.prevRecon[i], 0)
			return err
		}); err != nil {
			return err
		}
		if rp.prev[i] != nil {
			rp.v2Bytes += len(wire)
			rp.v3Bytes += len(delta)
		}
		rp.prev[i] = tree
		rp.wireNodes += nodes
		rp.wireBytes += len(wire)
	}
	if err := rp.do("flowdb.insert", 1, nil, func() error { return rp.sys.DB.InsertBatch(rows) }); err != nil {
		return err
	}
	if err := rp.do("flowdb.insert_views", 1, &rp.sealNs, func() error { return rp.viewDB.InsertBatch(rows) }); err != nil {
		return err
	}
	rp.closeEpoch(rp.ingestRecs)
	rp.ingestRecs = 0
	rp.epoch++
	return nil
}

// epochs replays every epoch the run moved: preload first, then the timed
// ones, in order, so central ends up holding what the real run's holds.
func (rp *sockReplay) epochs() error {
	for e := 0; e < rp.p.PreloadEpochs; e++ {
		for i := range rp.p.Sites {
			if err := rp.ingestEpoch(i, &rp.in.preload[i][e%len(rp.in.preload[i])]); err != nil {
				return err
			}
		}
		if err := rp.sealEpoch(); err != nil {
			return err
		}
	}
	for e := 0; e < rp.p.Epochs; e++ {
		for i := range rp.p.Sites {
			if err := rp.ingestEpoch(i, &rp.in.epochs[i][e%len(rp.in.epochs[i])]); err != nil {
				return err
			}
		}
		if err := rp.sealEpoch(); err != nil {
			return err
		}
	}
	return nil
}

// treeOps times the Flowtree operations the query path leans on, on the
// replayed central rows: merge, clone, top-k, and compression of an
// unbudgeted epoch down to the site budget.
func (rp *sockReplay) treeOps() error {
	rows := rp.sys.DB.Rows()
	if len(rows) == 0 {
		return nil
	}
	rows = rows[:min(len(rows), 16)]
	var merged *flowtree.Tree
	for rep := 0; rep < 3; rep++ {
		in := 0
		for _, r := range rows[1:] {
			in += r.Tree.Len()
		}
		base := rows[0].Tree.Clone()
		if err := rp.do("flowtree.merge", max(in, 1), nil, func() error {
			others := make([]*flowtree.Tree, 0, len(rows)-1)
			for _, r := range rows[1:] {
				others = append(others, r.Tree)
			}
			return base.MergeAll(others...)
		}); err != nil {
			return err
		}
		merged = base
		if err := rp.do("flowtree.clone", merged.Len(), nil, func() error { _ = merged.Clone(); return nil }); err != nil {
			return err
		}
		if err := rp.do("flowtree.topk", merged.Len(), nil, func() error { _ = merged.TopK(40); return nil }); err != nil {
			return err
		}
		d := rp.firstEpoch()
		full, err := flowtree.New(0)
		if err != nil {
			return err
		}
		full.AddBatch(d.recs)
		target := rp.p.Budget
		if target == 0 {
			target = 4096
		}
		if err := rp.do("flowtree.compress", full.Len(), nil, func() error { full.CompressTo(target * 3 / 4); return nil }); err != nil {
			return err
		}
	}
	return nil
}

func (rp *sockReplay) firstEpoch() *epochData {
	if len(rp.in.epochs) > 0 {
		return &rp.in.epochs[0][0]
	}
	return &rp.in.preload[0][0]
}

// queries replays a statement list through the query stages, one stage at a
// time over the whole list, with as many concurrent callers as the run had
// clients (what a query is charged depends on whether the other core is
// idle: the collector borrows an idle P). Each distinct statement is called
// `reps` times per stage; its first Select is the cold one when the memo
// cache misses, which is why at most as many statements as the memo holds
// are replayed. A collection is forced before each stage so that every
// stage starts from the same point of the collector's cycle.
func (rp *ledger) queries(db *flowdb.DB, list []string, callers int, scale float64, overHTTP bool) error {
	var distinct []string
	seen := make(map[string]bool)
	for _, s := range list {
		if !seen[s] && len(distinct) < 120 {
			seen[s] = true
			distinct = append(distinct, s)
		}
	}
	qs, err := flowserve.NewQuery(flowserve.QueryConfig{DB: db, RatePerSec: 1e9})
	if err != nil {
		return err
	}
	defer qs.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: qs.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	clients := make([]*queryClient, callers)
	for c := range clients {
		clients[c] = newQueryClient(ln.Addr())
		defer clients[c].close()
	}

	parsed := make([]*flowql.Query, len(distinct))
	results := make([]*flowql.Result, len(distinct))
	var mu sync.Mutex // guards the stage accounts' per-call samples
	// each runs one stage: fn on every statement, reps times; caller c
	// takes statements c, c+callers, ...
	each := func(stage string, reps int, fn func(c, i int) error) error {
		runtime.GC()
		return rp.do(stage, reps*len(distinct), nil, func() error {
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < len(distinct); i += callers {
						for r := 0; r < reps && errs[c] == nil; r++ {
							if err := fn(c, i); err != nil {
								errs[c] = fmt.Errorf("%q: %w", distinct[i], err)
							}
						}
					}
				}(c)
			}
			wg.Wait()
			return errors.Join(errs...)
		})
	}
	window := func(q *flowql.Query) (time.Time, time.Time) {
		if q.All {
			from, to, _ := db.TimeBounds()
			return from, to
		}
		return q.From, q.To
	}
	timedSelect := func(stage string, i int) error {
		from, to := window(parsed[i])
		t := time.Now()
		_, matched, err := db.Select(parsed[i].Locations, from, to)
		d := ms(time.Since(t))
		mu.Lock()
		rp.acc(stage).calls = append(rp.acc(stage).calls, d)
		if stage == "flowdb.select_first" {
			rp.merged = append(rp.merged, float64(matched))
		}
		mu.Unlock()
		return err
	}
	if err := each("flowql.parse", 10, func(_, i int) (err error) {
		parsed[i], err = flowql.Parse(distinct[i])
		return err
	}); err != nil {
		return err
	}
	// First touch: a cold Select wherever the memo cache misses
	// (statements sharing a (locations, window) key hit).
	cache0 := db.CacheStats()
	if err := each("flowdb.select_first", 1, func(_, i int) error { return timedSelect("flowdb.select_first", i) }); err != nil {
		return err
	}
	misses := int(db.CacheStats().Misses - cache0.Misses)
	// Size the stages from the first touch when it was all hits, else from
	// one untimed warm pass: enough calls that a stage spans several
	// collector cycles, within about a second per stage.
	t := time.Now()
	for _, q := range parsed {
		from, to := window(q)
		if _, _, err := db.Select(q.Locations, from, to); err != nil {
			return err
		}
	}
	size := min(1, scale/traceFraction) // smoke runs replay in proportion
	budget := time.Duration(size * float64(800*time.Millisecond))
	reps := max(2, min(int(size*replayCalls)/len(distinct), int(budget/max(time.Since(t), time.Microsecond))))
	if err := each("flowdb.select_warm", reps, func(_, i int) error { return timedSelect("flowdb.select_warm", i) }); err != nil {
		return err
	}
	// The first touch cost its misses a cold Select and its hits a warm
	// one; the cold account is what is left after the hits' share.
	first, warm := rp.acc("flowdb.select_first"), rp.acc("flowdb.select_warm")
	if misses > 0 {
		cold := rp.acc("flowdb.select_cold")
		cold.units = misses
		hits := float64(first.units - misses)
		cold.c.CPU = max(first.c.CPU-time.Duration(hits*warm.cpuNs()), 0)
		cold.c.Mallocs = first.c.Mallocs - min(first.c.Mallocs, uint64(hits*warm.mallocsPer()))
		sorted := append([]float64(nil), first.calls...)
		sort.Float64s(sorted)
		cold.calls = sorted[len(sorted)-misses:] // the misses are the slow calls
	}
	if err := each("flowql.execute", reps, func(_, i int) (err error) {
		results[i], err = flowql.Execute(db, parsed[i])
		return err
	}); err != nil {
		return err
	}
	if err := each("flowql.json", reps, func(_, i int) error {
		_, err := json.Marshal(results[i])
		return err
	}); err != nil {
		return err
	}
	if !overHTTP {
		return nil // the fleet has no HTTP face
	}
	h := qs.Handler()
	if err := each("flowserve.handler", reps, func(_, i int) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(distinct[i])))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler status %d", rec.Code)
		}
		return nil
	}); err != nil {
		return err
	}
	return each("flowserve.roundtrip", reps, func(c, i int) error {
		a, err := clients[c].post(distinct[i])
		if err == nil && a.status != http.StatusOK {
			err = fmt.Errorf("round trip status %d", a.status)
		}
		return err
	})
}

// replayCalls is how many calls a replayed query stage makes at most.
const replayCalls = 640

// central is what the replay must reproduce of a run's central FlowDB: the
// merged root counters, the SELECT QUERY FROM ALL answer and, at budget 0,
// the merged tree's bytes.
type central struct {
	total flow.Counters
	query flow.Counters
	rows  int
	wire  []byte
}

func centralOf(db *flowdb.DB, budget int) (central, error) {
	tree, _, err := db.Select(nil, time.Time{}, epoch0.AddDate(100, 0, 0))
	if err != nil {
		return central{}, err
	}
	res, err := flowql.Run(db, `SELECT QUERY FROM ALL`)
	if err != nil {
		return central{}, err
	}
	c := central{total: tree.Total(), query: res.Counters, rows: res.Merged}
	if budget == 0 {
		c.wire = tree.AppendBinary(nil)
	}
	return c, nil
}

// sameCentral checks that the replay computed what the real run computed:
// central's merged root counters and the SELECT QUERY FROM ALL totals are
// equal; at budget 0, where batch boundaries cannot change which nodes a
// tree folds, the merged central tree is byte-equal too.
func sameCentral(real, replay central) error {
	if real.total != replay.total {
		return fmt.Errorf("stage replay: central root counters %+v, the real run's are %+v", replay.total, real.total)
	}
	if real.query != replay.query || real.rows != replay.rows {
		return fmt.Errorf("stage replay: SELECT QUERY FROM ALL gives %+v over %d rows, the real run %+v over %d", replay.query, replay.rows, real.query, real.rows)
	}
	if !bytes.Equal(real.wire, replay.wire) {
		return fmt.Errorf("stage replay: central tree bytes differ from the real run's at budget 0")
	}
	return nil
}

// realStats is what the ledger reads off the real system before it is
// closed: the replay runs with the real system gone, because the cost of
// allocation-heavy stages depends on how much live heap the process holds.
type realStats struct {
	ingest  flowserve.IngestStats
	query   flowserve.QueryStats
	source  flowsource.Stats
	disk    flowstream.DiskStats
	net     simnet.TransferStats
	cache   flowdb.CacheStats
	rows    int
	dropped int
	central central
}

func (r *sockRun) stats() (realStats, error) {
	sys := r.s.sys
	c, err := centralOf(sys.DB, r.p.Budget)
	return realStats{
		ingest: r.s.srv.IngestStats(), query: r.s.srv.QueryStats(), source: sys.SourceStats(),
		disk: sys.DiskStats(), net: sys.Net.TotalStats(), cache: sys.DB.CacheStats(),
		rows: sys.DB.Len(), dropped: sys.DroppedExports(), central: c,
	}, err
}

// socketLedger replays the traced run's input and assembles the per-layer
// metrics from the replay's stages and the real run's spans and Stats().
func socketLedger(o *outcome, r *sockRun) error {
	p := o.p
	real, err := r.stats()
	if err != nil {
		return err
	}
	if err := r.close(); err != nil {
		return err
	}
	r.s, r.sse = nil, nil // let go of the real system's heap, memo cache included
	runtime.GC()
	rp, err := newSockReplay(p, r.in, r.tr)
	if err != nil {
		return err
	}
	defer rp.close()
	if err := rp.epochs(); err != nil {
		return err
	}
	replayed, err := centralOf(rp.sys.DB, p.Budget)
	if err != nil {
		return err
	}
	if err := sameCentral(real.central, replayed); err != nil {
		return err
	}
	if err := rp.treeOps(); err != nil {
		return err
	}
	var list []string
	for _, l := range r.in.lists {
		list = append(list, l...)
	}
	callers := max(len(r.in.lists), 1)
	if p.Workload == wIngest {
		list, callers = r.in.check, 1
	}
	if err := rp.queries(rp.sys.DB, list, callers, p.Scale, true); err != nil {
		return err
	}

	m := make(map[string]float64, len(perLayer))
	o.layer = m
	in, q := &o.ingest, &o.query
	sites := float64(len(p.Sites))

	// The replayed stages, net of the stages they contain.
	socket := rp.net("flowserve.ingest", "flowsource.consume")
	decode := rp.acc("flowsource.decode").cpuNs()
	batch := rp.net("flowsource.consume", "flowsource.decode")
	fold := rp.acc("datastore.fold").cpuNs()
	walAppend := rp.acc("storage.wal_append").cpuNs()
	parse := rp.acc("flowql.parse").cpuNs()
	execute := rp.acc("flowql.execute").cpuNs()
	selWarm := rp.acc("flowdb.select_warm").cpuNs()
	selCold := rp.acc("flowdb.select_cold").cpuNs()
	operate := max(execute-selWarm, 0)
	jsonNs := rp.acc("flowql.json").cpuNs()
	handler := rp.acc("flowserve.handler").cpuNs()
	httpNs := max(handler-parse-execute-jsonNs, 0)
	roundtrip := rp.net("flowserve.roundtrip", "flowserve.handler")

	m["flowserve.socket_ns_per_record"] = socket
	m["flowserve.http_ns_per_query"] = httpNs
	m["flowserve.http_allocs_per_query"] = rp.netMallocs("flowserve.handler", "flowql.parse", "flowql.execute", "flowql.json")
	m["flowserve.roundtrip_ns_per_query"] = roundtrip
	ist, qst := real.ingest, real.query
	m["flowserve.conns_accepted"] = float64(ist.Accepted)
	m["flowserve.conns_rejected"] = float64(ist.Rejected)
	m["flowserve.disconnects"] = float64(ist.Disconnects + ist.IdleClosed)
	m["flowserve.shed"] = float64(qst.Shed)
	m["flowserve.rate_limited"] = float64(qst.RateLimited)
	m["flowserve.bad_requests"] = float64(qst.BadRequests)

	m["flowsource.decode_ns_per_record"] = decode
	m["flowsource.decode_allocs_per_record"] = rp.acc("flowsource.decode").mallocsPer()
	m["flowsource.decode_bytes_per_record"] = rp.acc("flowsource.decode").bytesPer()
	m["flowsource.batch_ns_per_record"] = batch
	m["flowsource.batch_allocs_per_record"] = rp.netMallocs("flowsource.consume", "flowsource.decode")
	sst := real.source
	m["flowsource.batches"] = float64(sst.Batches)
	m["flowsource.peak_queued"] = float64(sst.PeakQueued)
	m["flowsource.dropped"] = float64(sst.Dropped)
	m["flowsource.truncated"] = float64(sst.Truncated)

	m["datastore.fold_ns_per_record"] = fold
	m["datastore.fold_allocs_per_record"] = rp.acc("datastore.fold").mallocsPer()
	m["datastore.fold_bytes_per_record"] = rp.acc("datastore.fold").bytesPer()
	m["datastore.seal_ms_per_epoch"] = rp.acc("datastore.seal").cpuMs() * sites
	m["datastore.seal_allocs_per_epoch"] = rp.acc("datastore.seal").mallocsPer() * sites

	rp.treeMetrics(m)

	// One epoch's replayed export: every site seals, encodes, ships and
	// decodes; one InsertBatch lands the rows and maintains the views.
	nodesPerTree := per(float64(rp.wireNodes), rp.acc("datastore.seal").units)
	insert := rp.acc("flowdb.insert").cpuNs()
	viewMaint := rp.net("flowdb.insert_views", "flowdb.insert")
	sealPred := sites*(rp.acc("datastore.seal").cpuNs()+rp.acc("storage.wal_seal").cpuNs()+rp.acc("simnet.transfer").cpuNs()+
		nodesPerTree*(rp.acc("flowtree.encode").cpuNs()+rp.acc("flowtree.decode").cpuNs())) + insert + viewMaint
	// Epoch figures are medians over epochs on both sides: a collection
	// that lands in one epoch's seal moves one sample, not the ledger.
	sealReal := median(in.sealByEpoch)

	m["flowstream.endepoch_ms_p50"] = median(in.endMs)
	m["flowstream.drain_ms_p50"] = median(in.drainMs)
	m["flowstream.pending_exports_max"] = float64(r.pendingMax)
	m["flowstream.dropped_exports"] = float64(real.dropped)
	dst := real.disk
	m["flowstream.wal_seal_errors"] = float64(dst.WALSealErrors)

	nst := real.net
	m["simnet.transfer_bytes"] = float64(nst.Bytes)
	m["simnet.attempts"] = float64(nst.Attempts)
	m["simnet.failures"] = float64(nst.Failures)
	m["simnet.virtual_ms_per_epoch"] = per(ms(nst.Time), r.seals)
	m["simnet.transfer_ns_per_call"] = rp.acc("simnet.transfer").cpuNs()

	m["flowdb.insert_ms_per_epoch"] = insert / 1e6
	m["flowdb.view_maint_ms_per_epoch"] = viewMaint / 1e6
	m["flowdb.coalesced"] = float64(real.cache.Coalesced)
	m["flowdb.view_recomputes"] = float64(rp.sub.View().Recomputes())
	m["flowdb.rows"] = float64(real.rows)

	rp.queryMetrics(m, o.hitRatio)

	m["storage.wal_append_ns_per_record"] = walAppend
	m["storage.wal_bytes_per_record"] = per(float64(rp.walBytes), rp.walRecs)
	m["storage.wal_seal_ms"] = rp.acc("storage.wal_seal").cpuMs()
	m["storage.wal_records"] = float64(dst.WALRecords)
	m["storage.spilled_epochs"] = float64(dst.SpilledEpochs)
	m["storage.spill_errors"] = float64(dst.SpillErrors)

	clientMetrics(m, o)
	runtimeMetrics(m, o)

	// The ledger: how much of what the real run was charged per record,
	// per epoch and per query the replayed stages explain. A part of the
	// run that shared the process with other parts (live_mixed) is charged
	// what is left of the section's CPU after the other parts' stages.
	ingestPred := decode + batch + fold
	if len(rp.conns) > 0 {
		ingestPred += socket + walAppend
	}
	hit := o.hitRatio
	// The query path is the gross round trip (which contains every warm
	// stage) plus what the run's cold share of Selects costs beyond a warm
	// one; summing the net stages instead would add up their clipping.
	queryPath := rp.acc("flowserve.roundtrip").cpuNs() + (1-hit)*(selCold-selWarm)
	// Ingest figures are means on both sides: an epoch's ingest is long
	// enough to hold its own collections, and they are part of its cost.
	ingestReal := per(float64(in.ingestCost.CPU), in.records)
	queryReal := per(float64(q.cost.CPU), q.n)
	lo, hi := p.PreloadEpochs, p.PreloadEpochs+p.Epochs
	if p.Workload == wWarm || p.Workload == wCold {
		lo, hi = 0, p.PreloadEpochs // the ingest leg is the preload
	}
	ingestPath, sealPath := mean(rp.ingestByEpoch[lo:hi]), median(rp.sealByEpoch[lo:hi])
	if p.Workload == wLive {
		// Ingest, seals and queries overlap in time here, so the section's
		// CPU cannot be split between them: the three ratios are one, what
		// the stages predict for everything the section did over what the
		// section was charged.
		r, e, n := float64(in.records), float64(in.epochs), float64(q.n)
		all := (r*ingestPath + e*sealPath + n*queryPath) / float64(o.mainCost.CPU)
		ingestReal, sealReal, queryReal = ingestPath/all, sealPath/all, queryPath/all
	}
	o.notes = []string{
		fmt.Sprintf("ingest, CPU ns per record: run %.0f, replayed path %.0f = socket %.0f + decode %.0f + batch %.0f + fold %.0f (of which Tree.AddBatch %.0f) + wal %.0f",
			ingestReal, ingestPath, socket, decode, batch, fold, rp.acc("flowtree.addbatch").cpuNs(), walAppend),
		fmt.Sprintf("seal, CPU us per epoch: run %.0f, replayed path %.0f = %g sites x (seal %.0f + wal seal %.0f + transfer %.0f + %.0f nodes x (encode %.3f + decode %.3f)) + insert %.0f + views %.0f",
			sealReal/1e3, sealPath/1e3, sites, rp.acc("datastore.seal").cpuNs()/1e3, rp.acc("storage.wal_seal").cpuNs()/1e3, rp.acc("simnet.transfer").cpuNs()/1e3,
			nodesPerTree, rp.acc("flowtree.encode").cpuNs()/1e3, rp.acc("flowtree.decode").cpuNs()/1e3, insert/1e3, viewMaint/1e3),
		fmt.Sprintf("query, CPU us per query: run %.0f, replayed path %.0f = parse %.1f + Select (hit %.3f x warm %.0f, miss x cold %.0f) + operate %.0f + json %.1f + http %.0f + round trip %.0f",
			queryReal/1e3, queryPath/1e3, parse/1e3, hit, selWarm/1e3, selCold/1e3, operate/1e3, jsonNs/1e3, httpNs/1e3, roundtrip/1e3),
	}
	m["flowstream.export_self_ms_per_epoch"] = max(sealReal-sealPred, 0) / 1e6
	m["ledger.ingest_coverage"] = ingestPath / ingestReal
	m["ledger.seal_coverage"] = sealPath / sealReal
	m["ledger.query_coverage"] = queryPath / queryReal

	recs, eps, qs := mainWork(o)
	o.shares = layerShares(map[string]float64{
		"flowserve":  recs*socket + qs*(httpNs+roundtrip),
		"flowsource": recs * (decode + batch),
		"datastore":  recs*fold + eps*sites*rp.acc("datastore.seal").cpuNs(),
		"storage":    recs*walAppend + eps*sites*rp.acc("storage.wal_seal").cpuNs(),
		"flowtree":   eps * sites * nodesPerTree * (rp.acc("flowtree.encode").cpuNs() + rp.acc("flowtree.decode").cpuNs()),
		"simnet":     eps * sites * rp.acc("simnet.transfer").cpuNs(),
		"flowdb":     eps*(insert+viewMaint) + qs*(hit*selWarm+(1-hit)*selCold),
		"flowql":     qs * (parse + operate + jsonNs),
	})
	return nil
}

// mainWork is what the workload's own timed section moved (not its set-up
// or verification leg): records, epochs, queries.
func mainWork(o *outcome) (records, epochs, queries float64) {
	switch o.p.Workload {
	case wWarm, wCold:
		return 0, 0, float64(o.query.n)
	case wLive:
		return float64(o.ingest.records), float64(o.ingest.epochs), float64(o.query.n)
	}
	return float64(o.ingest.records), float64(o.ingest.epochs), 0
}

// layerShares turns the stage time each layer accounts for in the timed
// section into shares of their sum.
func layerShares(ns map[string]float64) map[string]float64 {
	total := 0.0
	for _, v := range ns {
		total += v
	}
	out := make(map[string]float64, len(ns))
	for k, v := range ns {
		out[k] = v / max(total, 1)
	}
	return out
}

// clientMetrics are the generator's own figures, tails included.
func clientMetrics(m map[string]float64, o *outcome) {
	in, lat := &o.ingest, o.query.latMs()
	m["client.query_ms_p50"] = median(lat)
	m["client.query_ms_p99"] = percentile(lat, 0.99)
	m["client.query_ms_max"] = maxOf(lat)
	m["client.epoch_fresh_ms_p50"] = median(in.fresh)
	m["client.epoch_fresh_ms_p99"] = percentile(in.fresh, 0.99)
	m["client.notify_ms_p50"] = median(in.notify)
	m["client.notify_ms_p99"] = percentile(in.notify, 0.99)
	m["client.send_lag_ms_p99"] = percentile(in.lag, 0.99)
	m["client.samples"] = float64(len(in.fresh) + len(in.notify) + len(lat) + len(in.lag))
	m["client.offered_records_per_s"] = float64(o.p.RatePerS)
}

// runtimeMetrics are the Go runtime's figures over the timed section.
func runtimeMetrics(m map[string]float64, o *outcome) {
	c := o.mainCost
	m["runtime.cpu_s"] = c.CPU.Seconds()
	m["runtime.cpu_us_per_record"] = per(float64(o.ingest.ingestCost.CPU+o.ingest.sealCost.CPU)/1e3, o.ingest.records)
	m["runtime.gc_cycles"] = float64(c.GCs)
	m["runtime.gc_pause_ms_total"] = float64(c.PauseNs) / 1e6
	m["runtime.heap_peak_mb"] = o.heapPeak
	m["runtime.allocs_per_record"] = per(float64(o.ingest.ingestCost.Mallocs+o.ingest.sealCost.Mallocs), o.ingest.records)
	m["runtime.allocs_per_query"] = per(float64(o.query.cost.Mallocs), o.query.n)
}
