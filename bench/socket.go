package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowql"
)

// ingestLeg is what one stretch of ingest measured: records and epochs
// moved, wall from first byte to last EndEpoch return, and per epoch the
// time from its last byte written to EndEpoch returned (fresh) and to its
// standing-query notification read (notify).
type ingestLeg struct {
	records, epochs int
	wall            time.Duration
	epochS          []float64 // seconds per epoch: start of its writes to EndEpoch returned
	fresh, notify   []float64 // ms
	lag             []float64 // ms, open-loop send lateness
	alloc, wan      uint64
	late            int // open-loop ticks sent more than one tick late

	// Traced runs: process cost of the ingest part (write through
	// DrainSource) and of the seal part (EndEpoch) of every epoch, and
	// the DrainSource / EndEpoch wall times.
	ingestCost, sealCost cost
	drainMs, endMs       []float64
	// Per epoch: ingest CPU ns per record, seal CPU ns.
	ingestByEpoch, sealByEpoch []float64
}

// chargeIngest and chargeSeal book one epoch's traced cost.
func (l *ingestLeg) chargeIngest(c cost, records int) {
	l.ingestCost.add(c)
	l.ingestByEpoch = append(l.ingestByEpoch, per(float64(c.CPU), records))
}

func (l *ingestLeg) chargeSeal(c cost) {
	l.sealCost.add(c)
	l.sealByEpoch = append(l.sealByEpoch, float64(c.CPU))
}

// queryLeg is what one stretch of queries measured.
type queryLeg struct {
	n     int
	wall  time.Duration
	latBy [][]float64 // round trips in seconds, per client in issue order
	// classBy is each round trip's class: queries of one class do the same
	// work (the same statement of a cycled list; on query_cold, whose
	// statements are all distinct, the same number of sites and window
	// width; on live_mixed, also hit or miss), so a quantile over a class is
	// a quantile over repetitions (see typical).
	classBy [][]int
	alloc   uint64
	bad     int // non-200 responses
	cost    cost
}

// typical is the leg's typical round trip in seconds: the lower quartile of
// every class, averaged over the classes by how often each was asked. What
// disturbs a run on a shared machine (a collection, a neighbour on the host)
// only ever adds time, and adds it to some repetitions of a class, not to
// all: the lower quartile of the repetitions is what the code costs, the
// mean over classes keeps every kind of query of the mix in the figure.
func (q *queryLeg) typical() float64 {
	byClass := make(map[int][]float64)
	for c, by := range q.latBy {
		for j, s := range by {
			byClass[q.classBy[c][j]] = append(byClass[q.classBy[c][j]], s)
		}
	}
	sum := 0.0
	for _, v := range byClass {
		sum += float64(len(v)) * percentile(v, 0.25)
	}
	return per(sum, q.n)
}

// classesByText numbers the statements of cycled lists by first appearance:
// the same statement is the same class on every client.
func classesByText(lists [][]string) [][]int {
	ids := make(map[string]int)
	out := make([][]int, len(lists))
	for c, list := range lists {
		out[c] = make([]int, len(list))
		for j, stmt := range list {
			id, ok := ids[stmt]
			if !ok {
				id = len(ids)
				ids[stmt] = id
			}
			out[c][j] = id
		}
	}
	return out
}

// latMs is every round trip of the leg, in ms.
func (q *queryLeg) latMs() []float64 {
	var out []float64
	for _, by := range q.latBy {
		for _, s := range by {
			out = append(out, 1e3*s)
		}
	}
	return out
}

// sockInput is everything set-up pre-renders for a socket workload, so
// that the load threads only write and read.
type sockInput struct {
	preload [][]epochData // [site][distinct epoch], records only
	epochs  [][]epochData // [site][distinct epoch], rendered
	lists   [][]string    // main statement list per client
	classes [][]int       // each main statement's class; nil: cycled lists, classed by text
	warmup  [][]string    // statements issued once before timing, per client
	check   []string      // verification list
	sub     string        // the passive standing query
}

func genSockInput(p params, seed int64) (*sockInput, error) {
	in := &sockInput{sub: `SELECT TOPK(10) AT ` + p.Sites[0] + ` FROM ALL`}
	var err error
	if p.PreloadEpochs > 0 {
		if in.preload, err = genSites(seed, len(p.Sites), min(p.DistinctEpochs, p.PreloadEpochs), p.PreloadRecords, false); err != nil {
			return nil, err
		}
	}
	if p.Epochs > 0 {
		if in.epochs, err = genSites(seed+1, len(p.Sites), min(p.DistinctEpochs, p.Epochs), p.EpochRecords, true); err != nil {
			return nil, err
		}
	}
	switch p.Workload {
	case wWarm:
		stmts := warmStatements(p.Sites, p.PreloadEpochs)
		in.lists = make([][]string, p.Clients)
		for i := 0; i < p.Queries; i++ {
			c := i % p.Clients
			// Each client walks the whole list, offset so the two are
			// never on the same statement.
			in.lists[c] = append(in.lists[c], stmts[(i/p.Clients+c*len(stmts)/p.Clients)%len(stmts)])
		}
	case wCold:
		stmts, classes, err := coldStatements(seed, p.Sites, p.PreloadEpochs, p.Widths, coldMix, p.WarmupQueries+p.Statements)
		if err != nil {
			return nil, err
		}
		in.warmup = make([][]string, p.Clients)
		in.lists = make([][]string, p.Clients)
		in.classes = make([][]int, p.Clients)
		for i, s := range stmts {
			c := i % p.Clients
			if i < p.WarmupQueries {
				in.warmup[c] = append(in.warmup[c], s)
				continue
			}
			in.lists[c] = append(in.lists[c], s)
			in.classes[c] = append(in.classes[c], classes[i])
		}
	case wLive:
		in.lists = [][]string{mixedStatements(p.Sites[0], p.PreloadEpochs)}
	}
	if p.CheckQueries > 0 {
		stmts := checkStatements(p.Sites[0], checkWindow(p))
		for i := 0; i < p.CheckQueries; i++ {
			in.check = append(in.check, stmts[i%len(stmts)])
		}
	}
	return in, nil
}

// checkWindow is how many leading epochs the verification list's fixed
// windows cover.
func checkWindow(p params) int {
	if p.PreloadEpochs > 0 {
		return min(p.PreloadEpochs, 4)
	}
	return min(p.Epochs, 4)
}

// sockRun is one hosted system plus the ledger of what was sent to it.
type sockRun struct {
	p   params
	in  *sockInput
	s   *served
	sse *sseReader
	tr  *tracer

	conns     []net.Conn
	streamed  uint64        // records written to sockets
	sentTotal flow.Counters // counters of every record sent, preload included
	sentRecs  int
	seals     int // EndEpoch calls so far == notification seq of the last one
	// pendingMax is the most exports ever queued for re-shipment after a
	// seal (0 on a fault-free WAN).
	pendingMax int
	closed     bool
}

func newSockRun(p params, in *sockInput, tr *tracer) (*sockRun, error) {
	s, err := startServed(p)
	if err != nil {
		return nil, err
	}
	r := &sockRun{p: p, in: in, s: s, tr: tr}
	if r.sse, err = s.subscribe(in.sub); err != nil {
		r.close()
		return nil, err
	}
	if p.Epochs > 0 {
		for _, site := range p.Sites {
			conn, err := s.dialIngest(site)
			if err != nil {
				r.close()
				return nil, err
			}
			r.conns = append(r.conns, conn)
		}
	}
	return r, nil
}

func (r *sockRun) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	var err error
	if r.sse != nil {
		err = r.sse.close()
	}
	if cerr := r.s.close(); err == nil {
		err = cerr
	}
	return err
}

// seal commands one epoch seal and returns when it is queryable.
func (r *sockRun) seal() error {
	r.seals++
	err := r.s.srv.EndEpoch()
	r.pendingMax = max(r.pendingMax, r.s.sys.PendingExports())
	return err
}

// notifyMs is the time from an epoch's last byte to the arrival of the
// notification its seal produced.
func (r *sockRun) notifyMs(seq int, lastByte time.Time) (float64, error) {
	at, ok := r.sse.arrival(uint64(seq))
	if !ok {
		return 0, fmt.Errorf("standing query: notification %d never arrived", seq)
	}
	return ms(at.Sub(lastByte)), nil
}

// preload fills the system through System.IngestBatch + EndEpoch. It is
// part of set-up, and also the ingest leg of the workloads whose timed
// section does not ingest.
func (r *sockRun) preload() (ingestLeg, error) {
	var leg ingestLeg
	p := r.p
	if p.PreloadEpochs == 0 {
		return leg, nil
	}
	before := usageNow()
	wan0 := r.s.sys.WANBytes()
	lastByte := make([]time.Time, p.PreloadEpochs)
	for e := 0; e < p.PreloadEpochs; e++ {
		t0 := time.Now()
		var u usage
		if r.tr != nil {
			u = usageNow()
		}
		for i, site := range p.Sites {
			d := &r.in.preload[i][e%len(r.in.preload[i])]
			if err := r.s.sys.IngestBatch(site, d.recs); err != nil {
				return leg, err
			}
			r.sentTotal.Add(d.total)
			r.sentRecs += len(d.recs)
			leg.records += len(d.recs)
		}
		lastByte[e] = time.Now()
		if r.tr != nil {
			leg.chargeIngest(u.since(), len(p.Sites)*p.PreloadRecords)
			u = usageNow()
		}
		if err := r.seal(); err != nil {
			return leg, err
		}
		leg.fresh = append(leg.fresh, ms(time.Since(lastByte[e])))
		leg.epochS = append(leg.epochS, time.Since(t0).Seconds())
		if r.tr != nil {
			leg.endMs = append(leg.endMs, ms(time.Since(lastByte[e])))
			leg.chargeSeal(u.since())
		}
	}
	c := before.since()
	leg.epochs, leg.wall, leg.alloc = p.PreloadEpochs, c.Wall, c.Bytes
	leg.wan = r.s.sys.WANBytes() - wan0
	for e, at := range lastByte {
		n, err := r.notifyMs(r.seals-p.PreloadEpochs+e+1, at)
		if err != nil {
			return leg, err
		}
		leg.notify = append(leg.notify, n)
	}
	return leg, nil
}

// ingestClosed is ingest_line_rate's timed section: per epoch, every site's
// connection writes its pre-rendered epoch, then the harness waits until
// the source has decoded every record and commands the seal.
func (r *sockRun) ingestClosed() (ingestLeg, error) {
	var leg ingestLeg
	p := r.p
	before := usageNow()
	wan0 := r.s.sys.WANBytes()
	lastByte := make([]time.Time, p.Epochs)
	for e := 0; e < p.Epochs; e++ {
		req := "e" + strconv.Itoa(e)
		root := r.tr.begin("epoch", 0, req)
		t0 := time.Now()
		var u usage
		if r.tr != nil {
			u = usageNow()
		}
		var wg sync.WaitGroup
		errs := make([]error, len(r.conns))
		done := make([]time.Time, len(r.conns))
		for i, c := range r.conns {
			d := &r.in.epochs[i][e%len(r.in.epochs[i])]
			r.sentTotal.Add(d.total)
			r.sentRecs += len(d.recs)
			r.streamed += uint64(len(d.recs))
			leg.records += len(d.recs)
			wg.Add(1)
			go func(i int, c net.Conn, wire []byte) {
				defer wg.Done()
				id := r.tr.begin("write", root, req)
				_, errs[i] = c.Write(wire)
				done[i] = time.Now()
				r.tr.end(id)
			}(i, c, d.wire)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return leg, fmt.Errorf("write epoch %d to %s: %w", e, p.Sites[i], err)
			}
			if done[i].After(lastByte[e]) {
				lastByte[e] = done[i]
			}
		}
		id := r.tr.begin("wait_frames", root, req)
		if err := r.s.waitFrames(r.streamed); err != nil {
			return leg, err
		}
		r.tr.end(id)
		id = r.tr.begin("drain", root, req)
		t := time.Now()
		if err := r.s.sys.DrainSource(); err != nil {
			return leg, err
		}
		r.tr.end(id)
		if r.tr != nil {
			leg.drainMs = append(leg.drainMs, ms(time.Since(t)))
			leg.chargeIngest(u.since(), len(p.Sites)*p.EpochRecords)
			u = usageNow()
		}
		id = r.tr.begin("end_epoch", root, req)
		t = time.Now()
		if err := r.seal(); err != nil {
			return leg, err
		}
		r.tr.end(id)
		leg.fresh = append(leg.fresh, ms(time.Since(lastByte[e])))
		leg.epochS = append(leg.epochS, time.Since(t0).Seconds())
		if r.tr != nil {
			leg.endMs = append(leg.endMs, ms(time.Since(t)))
			leg.chargeSeal(u.since())
		}
		r.tr.end(root)
	}
	c := before.since()
	leg.epochs, leg.wall, leg.alloc = p.Epochs, c.Wall, c.Bytes
	leg.wan = r.s.sys.WANBytes() - wan0
	for e, at := range lastByte {
		id := r.tr.begin("sse_read", 0, "e"+strconv.Itoa(e))
		n, err := r.notifyMs(r.seals-p.Epochs+e+1, at)
		r.tr.end(id)
		if err != nil {
			return leg, err
		}
		leg.notify = append(leg.notify, n)
	}
	return leg, nil
}

// queryClosed runs one closed-loop keep-alive client per list, each list
// exactly once, and returns every answer in list order. classes are the
// statements' classes; nil classes them by text.
func (r *sockRun) queryClosed(lists [][]string, classes [][]int) (queryLeg, [][]answer, error) {
	if classes == nil {
		classes = classesByText(lists)
	}
	leg := queryLeg{classBy: classes}
	answers := make([][]answer, len(lists))
	errs := make([]error, len(lists))
	clients := make([]*queryClient, len(lists))
	for i := range lists {
		clients[i] = newQueryClient(r.s.srv.QueryAddr())
		defer clients[i].close()
		answers[i] = make([]answer, len(lists[i]))
	}
	before := usageNow()
	var wg sync.WaitGroup
	for i, list := range lists {
		wg.Add(1)
		go func(i int, list []string) {
			defer wg.Done()
			for j, stmt := range list {
				req := "q" + strconv.Itoa(i) + "." + strconv.Itoa(j)
				root := r.tr.begin("query", 0, req)
				id := r.tr.begin("roundtrip", root, req)
				a, err := clients[i].post(stmt)
				r.tr.end(id)
				r.tr.end(root)
				if err != nil {
					errs[i] = fmt.Errorf("client %d query %d: %w", i, j, err)
					return
				}
				answers[i][j] = a
			}
		}(i, list)
	}
	wg.Wait()
	leg.cost = before.since()
	leg.wall, leg.alloc = leg.cost.Wall, leg.cost.Bytes
	for i := range lists {
		if errs[i] != nil {
			return leg, nil, errs[i]
		}
		by := make([]float64, 0, len(answers[i]))
		for _, a := range answers[i] {
			leg.n++
			by = append(by, a.lat.Seconds())
			if a.status != http.StatusOK {
				leg.bad++
			}
		}
		leg.latBy = append(leg.latBy, by)
	}
	return leg, answers, nil
}

// checkAnswers holds the answers against flowql.Run + json.Marshal on the
// same DB at the same generation (nothing is sealed between the queries and
// this check): the HTTP path must be byte-equal to the in-process one. Every
// answer's status is checked; every `every`-th statement of a list is
// recomputed (a cold list costs as much to recompute as to run).
func (r *sockRun) checkAnswers(lists [][]string, answers [][]answer, every int) error {
	want := make(map[string]uint32)
	for i, list := range lists {
		for j, stmt := range list {
			a := answers[i][j]
			if a.status != http.StatusOK {
				return fmt.Errorf("query %q: status %d", stmt, a.status)
			}
			if j%every != 0 {
				continue
			}
			crc, ok := want[stmt]
			if !ok {
				res, err := flowql.Run(r.s.sys.DB, stmt)
				if err != nil {
					return fmt.Errorf("reference %q: %w", stmt, err)
				}
				body, err := json.Marshal(res)
				if err != nil {
					return err
				}
				crc = crc32.ChecksumIEEE(append(body, '\n'))
				want[stmt] = crc
			}
			if a.crc != crc {
				return fmt.Errorf("query %q: HTTP response differs from flowql.Run + json.Marshal", stmt)
			}
		}
	}
	return nil
}

// epochTicks is how many ticks each of live_mixed's epochs lasts: `mean` on
// average, a fixed pattern of mean-5, mean and mean+5. Two clocks of the
// system beat against the seals. The collector's period under this load is
// about half a second: evenly spaced seals fall on the same point of every
// collection for a whole run. And the source flushes a partial batch every
// 50 ms (five ticks): what it still holds when a seal is commanded, which the
// seal has to fold first, depends on where in those 50 ms the epoch ends. So
// every epoch is one tick more than a multiple of five: each ends one tick
// later in the flush period than the one before, every run meets every phase
// equally often, and the run's quantiles do not depend on the phase it
// happened to start at. The run still sends exactly epochs x mean ticks.
func epochTicks(epochs, mean int) []int {
	pattern := []int{-5, 5, 0, 0, 5, -5, 0, 0} // sums to 0
	out := make([]int, epochs)
	left := epochs * mean
	for e := range out {
		out[e] = mean
		if mean > 10 {
			out[e] += pattern[e%len(pattern)]
		}
		if e == epochs-1 || out[e] > left-(epochs-1-e) {
			out[e] = left - (epochs - 1 - e) // the rest, leaving a tick per later epoch
		}
		left -= out[e]
	}
	return out
}

// liveMixed is live_mixed's timed section: an open-loop sender on one
// connection, a sealer commanding a seal about every EpochRecords records
// (see epochTicks), one closed-loop query client, and the passive
// subscriber.
func (r *sockRun) liveMixed() (ingestLeg, queryLeg, error) {
	var leg ingestLeg
	p := r.p
	var qleg queryLeg
	tick := time.Duration(p.TickMs) * time.Millisecond
	tickRecs := p.RatePerS * p.TickMs / 1000
	ticksPerEpoch := p.EpochRecords / tickRecs
	if ticksPerEpoch < 1 || ticksPerEpoch*tickRecs != p.EpochRecords || tickRecs%decodeChunk != 0 {
		return leg, qleg, fmt.Errorf("epoch of %d records is not a whole number of %d-record ticks of whole decode chunks", p.EpochRecords, tickRecs)
	}
	conn := r.conns[0]
	site := r.in.epochs[0]
	type sealReq struct {
		epoch int
		sent  uint64
		root  int
	}
	sealCh := make(chan sealReq, p.Epochs) // the sender never waits for the sealer
	lastByte := make([]time.Time, p.Epochs)
	sealed := make([]time.Time, p.Epochs)
	seqOf := make([]int, p.Epochs)
	var stop atomic.Bool
	var sendErr, sealErr, queryErr error
	var wg sync.WaitGroup

	before := usageNow()
	wan0 := r.s.sys.WANBytes()
	start := time.Now().Add(tick)

	wg.Add(1)
	go func() { // load thread 1: open-loop ingest
		defer wg.Done()
		defer close(sealCh)
		k := 0
		for e, ticks := range epochTicks(p.Epochs, ticksPerEpoch) {
			req := "e" + strconv.Itoa(e)
			root := r.tr.begin("epoch", 0, req)
			for t := 0; t < ticks; t++ {
				// The pre-rendered epochs are one ring of ticks.
				d, j := &site[k/ticksPerEpoch%len(site)], k%ticksPerEpoch
				due := start.Add(time.Duration(k) * tick)
				k++
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lo := 0
				if j > 0 {
					lo = d.ends[j*tickRecs-1]
				}
				late := time.Since(due)
				id := r.tr.begin("write", root, req)
				_, err := conn.Write(d.wire[lo:d.ends[(j+1)*tickRecs-1]])
				r.tr.end(id)
				if err != nil {
					sendErr = fmt.Errorf("open-loop write: %w", err)
					return
				}
				leg.lag = append(leg.lag, ms(late))
				if late > tick {
					leg.late++
				}
			}
			lastByte[e] = time.Now()
			r.streamed += uint64(ticks * tickRecs)
			sealCh <- sealReq{e, r.streamed, root}
		}
	}()

	wg.Add(1)
	go func() { // the commanded seals flowserved's ticker would issue
		defer wg.Done()
		defer stop.Store(true)
		for sr := range sealCh {
			req := "e" + strconv.Itoa(sr.epoch)
			id := r.tr.begin("wait_frames", sr.root, req)
			err := r.s.waitFrames(sr.sent)
			r.tr.end(id)
			if err == nil {
				id = r.tr.begin("end_epoch", sr.root, req)
				t := time.Now()
				err = r.seal()
				r.tr.end(id)
				leg.endMs = append(leg.endMs, ms(time.Since(t)))
			}
			r.tr.end(sr.root)
			if err != nil {
				sealErr = err
				for range sealCh { // let the sender finish
				}
				return
			}
			sealed[sr.epoch] = time.Now()
			seqOf[sr.epoch] = r.seals
		}
	}()

	wg.Add(1)
	go func() { // load thread 2: closed-loop queries
		defer wg.Done()
		c := newQueryClient(r.s.srv.QueryAddr())
		defer c.close()
		list := r.in.lists[0]
		t0 := time.Now()
		var by []float64
		var classes []int
		defer func() { qleg.latBy, qleg.classBy = [][]float64{by}, [][]int{classes} }()
		// A statement's class is the statement and whether FlowDB's memo
		// missed: every seal turns each statement cold once. This client is
		// the only caller of Select, so a miss counted during its round trip
		// is its own.
		misses := r.s.sys.DB.CacheStats().Misses
		think := time.Duration(p.ThinkMs) * time.Millisecond
		for i := 0; !stop.Load(); i++ {
			time.Sleep(think)
			req := "q" + strconv.Itoa(i)
			root := r.tr.begin("query", 0, req)
			id := r.tr.begin("roundtrip", root, req)
			a, err := c.post(list[i%len(list)])
			r.tr.end(id)
			r.tr.end(root)
			if err != nil {
				queryErr = err
				return
			}
			qleg.n++
			by = append(by, a.lat.Seconds())
			class := i % len(list)
			if now := r.s.sys.DB.CacheStats().Misses; now != misses {
				misses = now
				class += len(list)
			}
			classes = append(classes, class)
			if a.status != http.StatusOK {
				qleg.bad++
			}
		}
		qleg.wall = time.Since(t0)
	}()
	wg.Wait()
	for _, err := range []error{sendErr, sealErr, queryErr} {
		if err != nil {
			return leg, qleg, err
		}
	}
	c := before.since()
	leg.ingestCost = c
	for e := 0; e < p.Epochs; e++ {
		d := &site[e%len(site)]
		r.sentTotal.Add(d.total)
		r.sentRecs += len(d.recs)
		leg.records += len(d.recs)
		leg.fresh = append(leg.fresh, ms(sealed[e].Sub(lastByte[e])))
		prev := start
		if e > 0 {
			prev = sealed[e-1]
		}
		leg.epochS = append(leg.epochS, sealed[e].Sub(prev).Seconds())
		n, err := r.notifyMs(seqOf[e], lastByte[e])
		if err != nil {
			return leg, qleg, err
		}
		leg.notify = append(leg.notify, n)
	}
	leg.epochs, leg.alloc = p.Epochs, c.Bytes
	leg.wall = sealed[p.Epochs-1].Sub(start)
	leg.wan = r.s.sys.WANBytes() - wan0
	return leg, qleg, nil
}

// conservation checks that nothing was lost between the sockets and the
// central FlowDB: every record sent was delivered to a store, central's
// merged root counters equal the sum of the counters sent, and FlowDB holds
// one row per site per epoch.
func (r *sockRun) conservation() error {
	st := r.s.sys.SourceStats()
	if st.Delivered != r.streamed || st.Dropped != 0 || st.Truncated != 0 || st.SinkErrors != 0 {
		return fmt.Errorf("conservation: streamed %d records, source delivered %d (dropped %d, truncated %d, sink errors %d)",
			r.streamed, st.Delivered, st.Dropped, st.Truncated, st.SinkErrors)
	}
	tree, _, err := r.s.sys.DB.Select(nil, time.Time{}, epoch0.AddDate(100, 0, 0))
	if err != nil {
		return fmt.Errorf("conservation: %w", err)
	}
	if got := tree.Total(); got != r.sentTotal {
		return fmt.Errorf("conservation: central root counters %+v, sent %+v", got, r.sentTotal)
	}
	if got, want := r.s.sys.DB.Len(), len(r.p.Sites)*r.seals; got != want {
		return fmt.Errorf("conservation: FlowDB holds %d rows, want sites x epochs = %d", got, want)
	}
	if n := r.s.sys.PendingExports() + r.s.sys.DroppedExports(); n != 0 {
		return fmt.Errorf("conservation: %d exports pending or dropped", n)
	}
	return nil
}
