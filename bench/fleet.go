package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"megadata/internal/federation"
	"megadata/internal/flow"
	"megadata/internal/flowql"
	"megadata/internal/simnet"
)

// fleetRun is fleet_epochs' system: an in-process federation.Fleet on the
// virtual clock, fed pre-generated records by two goroutines.
type fleetRun struct {
	p      params
	in     [][]epochData // [leaf][distinct epoch]
	fl     *federation.Fleet
	leaves []simnet.SiteID
	sub    *flowql.Subscription
	tr     *tracer

	subStop chan struct{}
	subDone chan struct{}
	mu      sync.Mutex
	arrived []time.Time

	sentTotal  flow.Counters
	sentRecs   int
	pendingMax int // most frames ever queued on uplinks after an EndEpoch
	closed     bool
}

func fleetConfig(p params) federation.FleetConfig {
	return federation.FleetConfig{
		Fanout:       p.Fanout,
		Epoch:        epochWidth,
		Start:        epoch0,
		LeafBudget:   p.LeafBudget,
		AggBudget:    p.AggBudget,
		DeltaExports: true,
		Link: simnet.Link{
			BytesPerSecond: float64(p.LinkMBps) * 1e6,
			Latency:        time.Duration(p.LinkMs) * time.Millisecond,
			FailEvery:      p.FailEvery,
		},
	}
}

func newFleetRun(p params, in [][]epochData, tr *tracer) (*fleetRun, error) {
	fl, err := federation.NewFleet(fleetConfig(p))
	if err != nil {
		return nil, err
	}
	r := &fleetRun{p: p, in: in, fl: fl, tr: tr, subStop: make(chan struct{}), subDone: make(chan struct{})}
	for _, n := range fl.Leaves() {
		r.leaves = append(r.leaves, n.ID)
	}
	if len(r.leaves) != p.Leaves {
		return nil, fmt.Errorf("fleet has %d leaves, want %d", len(r.leaves), p.Leaves)
	}
	// The passive standing query: the fleet has no HTTP face, so the
	// subscriber reads flowql notifications in process. It watches one
	// top-level child over a trailing one-epoch window, so the view stays
	// two rows small however often central's concurrent writers dirty it:
	// this workload measures the uplink machine, not view maintenance.
	// Depth covers one notification per top-level frame of a catch-up epoch.
	r.sub, err = fl.Subscribe(`SELECT QUERY AT n0 FROM ALL`,
		flowql.SubConfig{Policy: flowql.PolicyDrop, Depth: 8 * p.Fanout[0], Window: epochWidth})
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(r.subDone)
		for {
			select {
			case <-r.subStop:
				return
			case <-r.sub.Updates():
				now := time.Now()
				r.mu.Lock()
				r.arrived = append(r.arrived, now)
				r.mu.Unlock()
			}
		}
	}()
	return r, nil
}

func (r *fleetRun) close() {
	if r.closed {
		return
	}
	r.closed = true
	close(r.subStop)
	<-r.subDone
	r.sub.Close()
}

// epochs is fleet_epochs' timed section: two goroutines ingest half the
// leaves each, then EndEpoch; finally Drain.
func (r *fleetRun) epochs() (ingestLeg, error) {
	var leg ingestLeg
	p := r.p
	before := usageNow()
	lastByte := make([]time.Time, p.Epochs+1)
	for e := 0; e < p.Epochs; e++ {
		req := "e" + strconv.Itoa(e)
		root := r.tr.begin("epoch", 0, req)
		t0 := time.Now()
		var u usage
		if r.tr != nil {
			u = usageNow()
		}
		var wg sync.WaitGroup
		var errs [2]error
		var done [2]time.Time
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				id := r.tr.begin("ingest", root, req)
				defer r.tr.end(id)
				for l := g * len(r.leaves) / 2; l < (g+1)*len(r.leaves)/2; l++ {
					if err := r.fl.Ingest(r.leaves[l], r.in[l][e%len(r.in[l])].recs); err != nil {
						errs[g] = err
						return
					}
				}
				done[g] = time.Now()
			}(g)
		}
		wg.Wait()
		for g := range errs {
			if errs[g] != nil {
				return leg, errs[g]
			}
			if done[g].After(lastByte[e]) {
				lastByte[e] = done[g]
			}
		}
		for l := range r.leaves {
			d := &r.in[l][e%len(r.in[l])]
			r.sentTotal.Add(d.total)
			r.sentRecs += len(d.recs)
			leg.records += len(d.recs)
		}
		if r.tr != nil {
			leg.chargeIngest(u.since(), len(r.leaves)*p.EpochRecords)
			u = usageNow()
		}
		id := r.tr.begin("end_epoch", root, req)
		t := time.Now()
		if err := r.fl.EndEpoch(); err != nil {
			return leg, err
		}
		r.tr.end(id)
		r.pendingMax = max(r.pendingMax, r.fl.PendingExports())
		leg.fresh = append(leg.fresh, ms(time.Since(lastByte[e])))
		leg.epochS = append(leg.epochS, time.Since(t0).Seconds())
		if r.tr != nil {
			leg.endMs = append(leg.endMs, ms(time.Since(t)))
			leg.chargeSeal(u.since())
		}
		r.tr.end(root)
	}
	lastByte[p.Epochs] = time.Now()
	id := r.tr.begin("drain", 0, "drain")
	t := time.Now()
	err := r.fl.Drain(0)
	r.tr.end(id)
	if err != nil {
		return leg, err
	}
	leg.drainMs = []float64{ms(time.Since(t))}
	c := before.since()
	leg.epochs, leg.wall, leg.alloc, leg.wan = p.Epochs, c.Wall, c.Bytes, r.fl.WANBytes()

	// An epoch's notification is the last one read before the next
	// epoch's ingest ended; an epoch whose top-level frames all failed
	// this cycle has none and is not sampled.
	r.mu.Lock()
	arrived := append([]time.Time(nil), r.arrived...)
	r.mu.Unlock()
	a := 0
	for e := 0; e < p.Epochs; e++ {
		var last time.Time
		for a < len(arrived) && arrived[a].Before(lastByte[e+1]) {
			if !arrived[a].Before(lastByte[e]) {
				last = arrived[a]
			}
			a++
		}
		if !last.IsZero() {
			leg.notify = append(leg.notify, ms(last.Sub(lastByte[e])))
		}
	}
	if len(leg.notify) < p.Epochs/2 {
		return leg, fmt.Errorf("standing query: only %d of %d epochs notified", len(leg.notify), p.Epochs)
	}
	return leg, nil
}

// checkQueries is the fleet's verification query leg: the fleet has no
// HTTP face, so statements run through flowql.Run + json.Marshal.
func (r *fleetRun) checkQueries(stmts []string) (queryLeg, error) {
	leg := queryLeg{classBy: classesByText([][]string{stmts})}
	var by []float64
	before := usageNow()
	for i, stmt := range stmts {
		req := "q" + strconv.Itoa(i)
		id := r.tr.begin("query", 0, req)
		t := time.Now()
		res, err := flowql.Run(r.fl.DB, stmt)
		if err == nil {
			_, err = json.Marshal(res)
		}
		r.tr.end(id)
		if err != nil {
			return leg, fmt.Errorf("fleet query %q: %w", stmt, err)
		}
		by = append(by, time.Since(t).Seconds())
		leg.n++
	}
	leg.latBy = [][]float64{by}
	leg.cost = before.since()
	leg.wall, leg.alloc = leg.cost.Wall, leg.cost.Bytes
	return leg, nil
}

// conservation: after Drain, central's merged root counters equal the sum
// of everything ingested at the leaves, nothing is pending or dropped, and
// central holds at least one row per top-level child per epoch.
func (r *fleetRun) conservation() error {
	tree, err := r.fl.CentralTree()
	if err != nil {
		return fmt.Errorf("conservation: %w", err)
	}
	if got := tree.Total(); got != r.sentTotal {
		return fmt.Errorf("conservation: central root counters %+v, sent %+v", got, r.sentTotal)
	}
	if n := r.fl.PendingExports() + r.fl.DroppedFrames() + r.fl.DroppedExports(); n != 0 {
		return fmt.Errorf("conservation: %d frames pending or dropped after Drain", n)
	}
	if got, want := r.fl.DB.Len(), r.p.Fanout[0]*r.p.Epochs; got < want {
		return fmt.Errorf("conservation: FlowDB holds %d rows, want at least %d", got, want)
	}
	return nil
}
