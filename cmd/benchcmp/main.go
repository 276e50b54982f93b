// Command benchcmp diffs two `go test -json` benchmark logs (the files
// `make bench` writes) and prints per-benchmark ns/op and allocs/op deltas:
//
//	benchcmp BENCH_baseline.json BENCH_current.json
//	benchcmp -threshold 15 BENCH_baseline.json BENCH_current.json
//	benchcmp -threshold 40 -alloc-threshold 5 OLD.json NEW.json
//
// With -threshold P, any benchmark whose ns/op or allocs/op grew by more
// than P percent is a regression: each one is listed on stderr and the
// exit status is 1 — the CI gate. Without it the comparison is purely
// informational. -alloc-threshold overrides the percentage applied to
// allocs/op: wall-clock noise on a shared CI container is large (a
// back-to-back double run of the full suite swings ns/op by up to ~34%
// on sub-nanosecond micro-benches), but allocation counts are
// near-deterministic (≤1% swing), so the allocs gate can be far tighter
// than the ns gate.
//
// Custom metrics whose unit ends in "/op" (other than B/op), such as the
// routing benchmark's pops/op and relaxations/op, are deterministic work
// counts: they are listed after the main table and, under -threshold, any
// growth at all is a regression.
//
// Benchmarks present in only one log are reported with "-" on the missing
// side instead of failing, so partial runs (a narrowed ./pkg/... target, a
// renamed benchmark) still compare gracefully. Exit status: 0 on success,
// 1 when -threshold finds a regression, 2 when a log cannot be read or
// holds no benchmark results.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// event is the subset of test2json's record benchcmp needs.
type event struct {
	Action  string
	Package string
	Output  string
}

// result is one benchmark's measurements.
type result struct {
	nsPerOp     float64
	allocsPerOp int64
	hasAllocs   bool
	// work maps each work-count unit (pops/op, ...) to its value.
	work map[string]float64
}

// resultRx matches an assembled benchmark result line:
// "BenchmarkX[-P] <tab> N <tab> T ns/op [<tab> B B/op <tab> A allocs/op]".
var resultRx = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9]+) allocs/op)?`)

// metricRx matches one "value unit" pair of a result line.
var metricRx = regexp.MustCompile(`([0-9.e+-]+) (\S+/op)`)

// isWorkUnit reports whether a metric unit is a deterministic work count.
func isWorkUnit(unit string) bool {
	return unit != "ns/op" && unit != "B/op" && unit != "allocs/op"
}

func main() {
	threshold := flag.Float64("threshold", 0,
		"fail (exit 1) when ns/op or allocs/op regresses by more than this percentage, or a work count grows (0 = report only)")
	allocThreshold := flag.Float64("alloc-threshold", 0,
		"separate percentage for allocs/op regressions (0 = use -threshold)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchcmp [-threshold pct] OLD.json NEW.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldRes := parse(flag.Arg(0))
	newRes := parse(flag.Arg(1))

	keys := make([]string, 0, len(oldRes)+len(newRes))
	seen := make(map[string]bool)
	for k := range oldRes {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range newRes {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\told ns/op\tnew ns/op\tdelta\told allocs/op\tnew allocs/op\tdelta")
	for _, k := range keys {
		o, haveOld := oldRes[k]
		n, haveNew := newRes[k]
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", k,
			ns(o, haveOld), ns(n, haveNew), delta(haveOld && haveNew, o.nsPerOp, n.nsPerOp),
			allocs(o, haveOld), allocs(n, haveNew),
			delta(haveOld && haveNew && o.hasAllocs && n.hasAllocs,
				float64(o.allocsPerOp), float64(n.allocsPerOp)))
	}
	header := false
	for _, k := range keys {
		o, n := oldRes[k], newRes[k]
		for _, unit := range workUnits(o, n) {
			if !header {
				fmt.Fprintln(w)
				fmt.Fprintln(w, "benchmark\twork unit\told\tnew\tdelta")
				header = true
			}
			ov, haveOld := o.work[unit]
			nv, haveNew := n.work[unit]
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", k, unit,
				work(ov, haveOld), work(nv, haveNew), delta(haveOld && haveNew, ov, nv))
		}
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}

	if *threshold > 0 {
		allocPct := *allocThreshold
		if allocPct <= 0 {
			allocPct = *threshold
		}
		var regressions []string
		for _, k := range keys {
			o, haveOld := oldRes[k]
			n, haveNew := newRes[k]
			if !haveOld || !haveNew {
				continue
			}
			if o.nsPerOp > 0 {
				if pct := (n.nsPerOp - o.nsPerOp) / o.nsPerOp * 100; pct > *threshold {
					regressions = append(regressions,
						fmt.Sprintf("%s: ns/op %+.1f%% (%.0f -> %.0f)", k, pct, o.nsPerOp, n.nsPerOp))
				}
			}
			if o.hasAllocs && n.hasAllocs && o.allocsPerOp > 0 {
				if pct := float64(n.allocsPerOp-o.allocsPerOp) / float64(o.allocsPerOp) * 100; pct > allocPct {
					regressions = append(regressions,
						fmt.Sprintf("%s: allocs/op %+.1f%% (%d -> %d)", k, pct, o.allocsPerOp, n.allocsPerOp))
				}
			}
			for _, unit := range workUnits(o, n) {
				ov, haveOld := o.work[unit]
				nv, haveNew := n.work[unit]
				if haveOld && haveNew && nv > ov {
					regressions = append(regressions,
						fmt.Sprintf("%s: %s grew (%g -> %g)", k, unit, ov, nv))
				}
			}
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchcmp: %d regression(s) beyond ns/op %.1f%% / allocs/op %.1f%% / any work-count growth:\n",
				len(regressions), *threshold, allocPct)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
	}
}

func ns(r result, have bool) string {
	if !have {
		return "-"
	}
	return strconv.FormatFloat(r.nsPerOp, 'f', -1, 64)
}

func work(v float64, have bool) string {
	if !have {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// workUnits returns the work-count units either result reports, sorted.
func workUnits(a, b result) []string {
	var units []string
	for u := range a.work {
		units = append(units, u)
	}
	for u := range b.work {
		if _, ok := a.work[u]; !ok {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	return units
}

func allocs(r result, have bool) string {
	if !have || !r.hasAllocs {
		return "-"
	}
	return strconv.FormatInt(r.allocsPerOp, 10)
}

func delta(comparable bool, old, new float64) string {
	if !comparable || old == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

// parse reassembles a test2json log's Output stream per package and
// extracts every benchmark result line.
func parse(path string) map[string]result {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	defer f.Close()

	// test2json splits one result line across several Output events
	// ("BenchmarkX \t" then "  24301\t 50589 ns/op...\n"), so concatenate
	// per package before scanning for assembled lines.
	byPkg := make(map[string]*strings.Builder)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON lines (truncated logs, build noise)
		}
		if ev.Action != "output" || ev.Output == "" {
			continue
		}
		b := byPkg[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			byPkg[ev.Package] = b
			order = append(order, ev.Package)
		}
		b.WriteString(ev.Output)
	}

	out := make(map[string]result)
	for _, pkg := range order {
		for _, line := range strings.Split(byPkg[pkg].String(), "\n") {
			m := resultRx.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			nsOp, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			r := result{nsPerOp: nsOp}
			for _, mm := range metricRx.FindAllStringSubmatch(line, -1) {
				v, err := strconv.ParseFloat(mm[1], 64)
				if err != nil || !isWorkUnit(mm[2]) {
					continue
				}
				if r.work == nil {
					r.work = make(map[string]float64)
				}
				r.work[mm[2]] = v
			}
			if m[3] != "" {
				if a, err := strconv.ParseInt(m[3], 10, 64); err == nil {
					r.allocsPerOp = a
					r.hasAllocs = true
				}
			}
			out[pkg+"."+m[1]] = r
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: no benchmark results in %s\n", path)
		os.Exit(2)
	}
	return out
}
