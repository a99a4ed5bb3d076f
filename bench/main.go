// Command bench is the repository's pipeline benchmark: five named
// workloads over the Figure-5 path (routers -> site stores -> Flowtree
// summaries -> WAN -> FlowDB -> FlowQL), twelve end-to-end metrics and a
// per-layer stage ledger. See README.md in this directory.
//
//	go run ./bench -workload <name> -seed <n> [-seconds <s>] [-trace 0|1]
//	go run ./bench -agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
		seed     = fs.Int64("seed", 1, "seed of the generated inputs (the system under test never sees it)")
		seconds  = fs.Float64("seconds", runSeconds, "size of the timed section: work units scale by seconds/run_seconds")
		trace    = fs.Int("trace", 0, "1 = traced run: a fifth of the work, spans, stage replay, per-layer metrics")
		traceOut = fs.String("trace-out", "", "file the traced run writes its spans to (JSON lines)")
		agree    = fs.Bool("agree", false, "repeatability tool: run the suite twice (A B B A per workload) and compare medians to the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("need at least 2 CPUs (two load threads beside the system), have %d", runtime.NumCPU())
	}
	if *agree {
		return runAgree(*seed, *seconds)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	scale := *seconds / runSeconds
	if *trace != 0 {
		scale *= traceFraction
	}
	p, err := paramsFor(*workload, scale)
	if err != nil {
		return err
	}
	printHeader(p, *seed, *trace != 0)
	out, tr, err := measure(p, *seed, *trace != 0)
	if err != nil {
		return err
	}
	if tr != nil && *traceOut != "" {
		if err := tr.write(*traceOut); err != nil {
			return err
		}
	}
	out.print()
	if tr != nil {
		// Self time: a span's duration minus what its child spans cover.
		self := tr.selfTimes()
		fmt.Print("span self time, ms:")
		for _, name := range sortedKeys(self) {
			fmt.Printf(" %s=%.1f", name, ms(self[name]))
		}
		fmt.Println()
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs one workload and reports its end-to-end metrics, or, traced,
// its per-layer metrics and the spans behind them.
func measure(p params, seed int64, traced bool) (report, *tracer, error) {
	if !traced {
		o, err := runWorkload(p, seed, nil)
		if err != nil {
			return report{}, nil, err
		}
		return newReport(o, endToEnd, o.metrics()), nil, nil
	}
	o, tr, err := runTraced(p, seed)
	if err != nil {
		return report{}, nil, err
	}
	return newReport(o, perLayer, o.layer), tr, nil
}

// runTraced runs the workload once with tracing off (for the overhead
// figure) and once traced.
func runTraced(p params, seed int64) (*outcome, *tracer, error) {
	plain, err := runWorkload(p, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	tr := newTracer()
	o, err := runWorkload(p, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	o.layer["ledger.trace_overhead"] = throughput(plain) / throughput(o)
	return o, tr, nil
}

// throughput is the rate of the workload's own timed section.
func throughput(o *outcome) float64 {
	switch o.p.Workload {
	case wWarm, wCold:
		return float64(o.query.n) / o.query.wall.Seconds()
	}
	return float64(o.ingest.records) / o.ingest.wall.Seconds()
}

// report is the result line: the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	order     []string
	o         *outcome
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(o *outcome, defs []metricDef, vals map[string]float64) report {
	r := report{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(defs)), o: o}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		r.order = append(r.order, d.Name)
	}
	return r
}

// print writes the human-readable part: every metric by name with its
// unit, the sample counts and tails of an end-to-end run, the layer shares
// of a traced one.
func (r report) print() {
	if r.o.layer == nil {
		printTails(r.o)
	} else {
		printShares(r.o)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("%-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
}

// printTails prints what the end-to-end list leaves out on purpose: tails
// do not repeat within a tenth on a shared 2-core box.
func printTails(o *outcome) {
	in, lat := &o.ingest, o.query.latMs()
	fmt.Printf("samples: epochs=%d notifications=%d queries=%d set-ups=%d\n", len(in.fresh), len(in.notify), len(lat), len(o.setup))
	fmt.Printf("medians and tails: epoch_fresh_ms p50=%.3f p99=%.3f max=%.3f  notify_ms p50=%.3f p99=%.3f  query_ms p50=%.3f p99=%.3f max=%.3f  queries/wall=%.1f/s",
		median(in.fresh), percentile(in.fresh, 0.99), maxOf(in.fresh), median(in.notify), percentile(in.notify, 0.99),
		median(lat), percentile(lat, 0.99), maxOf(lat), float64(o.query.n)/o.query.wall.Seconds())
	if len(in.lag) > 0 {
		fmt.Printf("  send_lag_ms p99=%.3f late_ticks=%d/%d", percentile(in.lag, 0.99), in.late, len(in.lag))
	}
	fmt.Println()
}

// printShares prints which layers the timed section's stage time went to.
func printShares(o *outcome) {
	fmt.Print("share of the timed section's stage time:")
	for _, layer := range sortedKeys(o.shares) {
		fmt.Printf(" %s=%.1f%%", layer, 100*o.shares[layer])
	}
	fmt.Println()
	for _, n := range o.notes {
		fmt.Println("ledger:", n)
	}
}

// printHeader prints what a reader needs to reproduce the run.
func printHeader(p params, seed int64, traced bool) {
	consts, _ := json.Marshal(p)
	fmt.Printf("bench: workload=%s seed=%d traced=%v commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		p.Workload, seed, traced, commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("constants: %s\n", consts)
}

// commit names the code that is running: the VCS stamp when the binary
// has one, otherwise git, otherwise "unknown" (the driver's checkout is
// not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value[:min(12, len(s.Value))]
			}
		}
	}
	// Look no further up than this directory: the benchmark reads only
	// inside its checkout.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// sortedKeys is used wherever a table must print in a stable order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
