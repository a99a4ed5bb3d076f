package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowsource"
	"megadata/internal/workload"
)

// epochData is one pre-generated epoch of one site: the records, their
// framed wire bytes (with the offset where each record's frame ends, so
// open-loop ticks can cut at record boundaries) and their counter sum.
type epochData struct {
	recs  []flow.Record
	wire  []byte
	ends  []int
	total flow.Counters
}

// genSite generates a site's distinct epochs from the seed. The seed stays
// here: the system under test only ever sees the records and bytes.
func genSite(seed int64, siteIdx, distinct, records int, render bool) ([]epochData, error) {
	gen, err := workload.NewFlowGen(workload.FlowConfig{
		Seed:  seed*1000003 + int64(siteIdx),
		Start: epoch0,
		Epoch: epochWidth,
	})
	if err != nil {
		return nil, err
	}
	out := make([]epochData, distinct)
	for e := range out {
		d := &out[e]
		d.recs = gen.Records(records)
		gen.NextEpoch()
		for _, r := range d.recs {
			d.total.Add(flow.CountersOf(r))
		}
		if render {
			d.wire = make([]byte, 0, records*36)
			d.ends = make([]int, records)
			for i, r := range d.recs {
				d.wire = flowsource.AppendFrame(d.wire, r)
				d.ends[i] = len(d.wire)
			}
		}
	}
	return out, nil
}

// genFleet generates the fleet's leaves. A leaf's epochs share four fifths
// of their records (the steady talkers of a site) and differ in the rest, so
// consecutive sealed trees are close enough for the v3 delta wire to ship
// deltas: the chain, and its reset after a fault, is what the workload is
// there to exercise.
func genFleet(seed int64, leaves, distinct, records int) ([][]epochData, error) {
	fresh := max(records/5, 1)
	out := make([][]epochData, leaves)
	for l := range out {
		steady, err := genSite(seed+7, l, 1, records-fresh, false)
		if err != nil {
			return nil, err
		}
		if out[l], err = genSite(seed, l, distinct, fresh, false); err != nil {
			return nil, err
		}
		for e := range out[l] {
			d := &out[l][e]
			d.recs = append(d.recs, steady[0].recs...)
			d.total.Add(steady[0].total)
		}
	}
	return out, nil
}

// genSites generates every site's distinct epochs.
func genSites(seed int64, sites, distinct, records int, render bool) ([][]epochData, error) {
	out := make([][]epochData, sites)
	for i := range out {
		var err error
		if out[i], err = genSite(seed, i, distinct, records, render); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// window renders the FROM clause covering epochs [from, to).
func window(from, to int) string {
	at := func(e int) string { return epoch0.Add(time.Duration(e) * epochWidth).Format(time.RFC3339) }
	return fmt.Sprintf(`FROM "%s" TO "%s"`, at(from), at(to))
}

// warmStatements is the fixed list query_warm cycles: all five operators,
// FROM ALL and fixed windows, unfiltered and WHERE-restricted. epochs is
// how many epochs the DB holds.
func warmStatements(sites []string, epochs int) []string {
	a, b := sites[0], sites[len(sites)-1]
	h, q := epochs/2, epochs/4
	return []string{
		`SELECT QUERY FROM ALL`,
		`SELECT TOPK(10) FROM ALL`,
		`SELECT TOPK(10) AT ` + a + ` FROM ALL`,
		`SELECT HHH(0.05) FROM ALL`,
		`SELECT DRILLDOWN FROM ALL`,
		`SELECT ABOVE(2000000000) AT ` + b + ` FROM ALL`,
		`SELECT TOPK(10) FROM ALL WHERE dport = 443`,
		`SELECT QUERY FROM ALL WHERE src = 10.0.0.0/8 AND proto = tcp`,
		`SELECT TOPK(20) ` + window(0, h),
		`SELECT HHH(0.02) AT ` + a + ` ` + window(q, h),
		`SELECT DRILLDOWN AT ` + a + `, ` + b + ` ` + window(h, epochs),
		`SELECT ABOVE(500000000) ` + window(q, q+4),
		`SELECT QUERY AT ` + b + ` ` + window(0, q),
		`SELECT TOPK(10) ` + window(h, h+q) + ` WHERE proto = udp`,
		`SELECT HHH(0.1) ` + window(q, epochs) + ` WHERE dport = 53`,
		`SELECT TOPK(5) AT ` + a + ` ` + window(epochs-2, epochs),
	}
}

// coldStatements builds n statements with pairwise-distinct (location
// subset, window) keys, so each is a FlowDB memo miss: explicit AT lists over
// every non-empty site subset, window widths from widths. The list is a
// sequence of identical cycles: per subset, mix[i] windows of widths[i], so
// every cycle asks for the same mix of merge sizes whatever the seed; the seed
// only picks which windows of a width a subset gets, in which order. The
// second result is each statement's class, (sites in the subset, window
// width): the statements of one class merge the same number of summaries and
// cost about the same, which is what lets a run take a quantile over them.
func coldStatements(seed int64, sites []string, epochs int, widths, mix []int, n int) ([]string, []int, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	ops := []string{"QUERY", "TOPK(10)", "HHH(0.05)", "DRILLDOWN", "ABOVE(1000000000)"}
	subsets := 1<<len(sites) - 1
	starts := make([][][]int, subsets) // [subset][width]: seeded order of the width's window starts
	for s := range starts {
		starts[s] = make([][]int, len(widths))
		for i, w := range widths {
			if w <= epochs {
				starts[s][i] = rng.Perm(epochs - w + 1)
			}
		}
	}
	out := make([]string, 0, n)
	classes := make([]int, 0, n)
	for round := 0; len(out) < n; round++ {
		pos := 0 // position in the cycle: picks the operator
		for s := 0; s < subsets; s++ {
			var at []string
			for i, name := range sites {
				if (s+1)&(1<<i) != 0 {
					at = append(at, name)
				}
			}
			for i, w := range widths {
				for k := 0; k < mix[i]; k, pos = k+1, pos+1 {
					if len(out) == n {
						continue
					}
					if round*mix[i]+k >= len(starts[s][i]) {
						return nil, nil, fmt.Errorf("cold list wants %d distinct keys: width %d has only %d windows in %d epochs", n, w, len(starts[s][i]), epochs)
					}
					from := starts[s][i][round*mix[i]+k]
					out = append(out, fmt.Sprintf("SELECT %s AT %s %s", ops[pos%len(ops)], strings.Join(at, ", "), window(from, from+w)))
					classes = append(classes, (len(at)-1)*len(widths)+i)
				}
			}
		}
	}
	return out, classes, nil
}

// mixedStatements is the list live_mixed's client rotates: half FROM ALL,
// which every seal turns cold, half fixed windows over the `fixed` preloaded
// epochs.
func mixedStatements(site string, fixed int) []string {
	h := max(fixed/2, 1)
	return []string{
		`SELECT QUERY FROM ALL`,
		`SELECT TOPK(10) AT ` + site + ` FROM ALL`,
		`SELECT HHH(0.05) FROM ALL`,
		`SELECT DRILLDOWN FROM ALL`,
		`SELECT TOPK(10) ` + window(0, h),
		`SELECT QUERY AT ` + site + ` ` + window(0, fixed),
		`SELECT ABOVE(500000000) ` + window(h, fixed),
		`SELECT TOPK(5) ` + window(0, fixed) + ` WHERE dport = 443`,
	}
}

// checkStatements is the list the verification query leg cycles on the
// workloads whose timed section has no statement list of its own: narrow
// fixed windows over the first `fixed` epochs, all five operators. No FROM
// ALL: the leg charges allocation per query, and only the first epochs hold
// the same trees on every run of a seed.
func checkStatements(site string, fixed int) []string {
	h := max(fixed/2, 1)
	return []string{
		`SELECT QUERY ` + window(0, fixed) + ` WHERE proto = tcp`,
		`SELECT TOPK(10) AT ` + site + ` ` + window(0, fixed),
		`SELECT HHH(0.05) ` + window(0, h),
		`SELECT DRILLDOWN ` + window(h, fixed),
		`SELECT TOPK(10) ` + window(0, h),
		`SELECT QUERY AT ` + site + ` ` + window(0, fixed),
		`SELECT ABOVE(500000000) ` + window(h, fixed),
		`SELECT TOPK(5) ` + window(0, fixed) + ` WHERE dport = 443`,
	}
}
