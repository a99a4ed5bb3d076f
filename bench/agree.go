package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAgree is the repeatability tool: it runs every workload four times in
// fresh processes, in the order A B B A, and holds the two sets' medians of
// every end-to-end metric against the metric's own bound. Two sets of runs
// of the same code that disagree beyond a bound mean the bound cannot tell
// a regression from noise.
func runAgree(seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("agree: seed=%d seconds=%g, order A B B A per workload\n", seed, seconds)
	fmt.Printf("%-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	disagree := 0
	for _, w := range workloadNames {
		sets := map[byte][]map[string]metricValue{}
		for _, set := range []byte("ABBA") {
			m, err := runChild(exe, w, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			sets[set] = append(sets[set], m)
		}
		for _, d := range endToEnd {
			a := median([]float64{sets['A'][0][d.Name].Value, sets['A'][1][d.Name].Value})
			b := median([]float64{sets['B'][0][d.Name].Value, sets['B'][1][d.Name].Value})
			diff := math.Abs(a-b) / math.Min(a, b)
			mark := ""
			if !(diff <= d.Bound) {
				mark = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-18s %-24s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", w, d.Name, a, b, 100*diff, 100*d.Bound, mark)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d end-to-end metrics disagree beyond their bound", disagree)
	}
	fmt.Println("agree: every end-to-end metric of every workload agrees within its bound")
	return nil
}

// runChild runs one end-to-end run in a fresh process and parses its
// result line.
func runChild(exe, workload string, seed int64, seconds float64) (map[string]metricValue, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r report
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("run reported incorrect output")
	}
	return r.Metrics, nil
}
