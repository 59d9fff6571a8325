// Command elperf is the ellog benchmark. One run measures one workload:
//
//	elperf --workload steady --seed 3 --seconds 10 --trace 0
//
// The four workloads each stress a different part of the system (see
// README.md in this directory): minspace (the Figure 4 min-space searches
// on runner.Pool), steady (one long paper-frame EL simulation), commit
// (the real file backend driven open-loop) and xshard (sharded PDES). A
// run spends its budget on its own workload and measures a short
// cross-section of the other three, so that every metric is measured in
// every run (see runOrder for the order). It checks the outputs and
// prints each metric as "name value unit", then one JSON line with the
// result.
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it reports the per-layer metrics instead: each phase runs
// untraced and again with spans at the layer seams, the two runs' simulated
// statistics must match, and the spans are written to
// .bench_build/elperf-out/spans-<workload>-<phase>.tsv.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// phase is one workload's measurement: run reports end-to-end metrics,
// traced reports per-layer metrics and returns its spans. cross is the
// host-second budget the phase gets as another workload's cross-section.
type phase struct {
	run    func(seed uint64, budget float64, r results, o *outcome) error
	traced func(seed uint64, budget float64, r results, o *outcome) ([]span, error)
	cross  float64
}

var phases = map[string]phase{
	"minspace": {minspacePhase, func(seed uint64, _ float64, r results, o *outcome) ([]span, error) {
		return minspaceTraced(seed, r, o)
	}, 8},
	"steady": {steadyPhase, steadyTraced, 2},
	"commit": {commitPhase, commitTraced, 8},
	"xshard": {xshardPhase, xshardTraced, 2},
}

// phaseOrder fixes the order of the cross-section phases.
var phaseOrder = []string{"minspace", "steady", "commit", "xshard"}

const (
	// traceShare scales the workload's budget in a traced run, which
	// runs each phase twice and keeps every span in memory.
	traceShare = 0.25
)

// spanDir holds the traced runs' span files, inside the build directory.
const spanDir = ".bench_build/elperf-out"

func main() {
	workload := flag.String("workload", "", "workload to run: minspace, steady, commit or xshard")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "elperf: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int) error {
	if _, ok := phases[workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, phaseOrder)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if seed == 0 {
		// Seed 0 would collide with the engines' "unset" default.
		seed = 1 << 32
	}
	fmt.Fprintf(os.Stderr, "elperf: workload %s seed %d seconds %d trace %d (GOMAXPROCS %d)\n",
		workload, seed, seconds, trace, runtime.GOMAXPROCS(0))
	var o outcome
	byPhase := map[string]results{}
	for _, name := range runOrder(workload) {
		ph := phases[name]
		own := name == workload
		budget := ph.cross
		if own {
			budget = float64(seconds)
		}
		// Each phase starts with the memory of the one before returned to
		// the kernel, so the runtime does not release it during the phase:
		// a search set timed right after steady's quarter-gigabyte heap
		// spread twice as wide over ten seeds as one timed after commit.
		debug.FreeOSMemory()
		pr := results{}
		t0, steal0 := hostNow(), hostSteal()
		if trace == 0 {
			if err := ph.run(seed, budget, pr, &o); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		} else {
			if own {
				budget *= traceShare
			}
			spans, err := ph.traced(seed, budget, pr, &o)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if own {
				pr.set("trace.spans", float64(len(spans)))
			}
			printSelfTimes(name, spans)
			if err := writeSpans(filepath.Join(spanDir, fmt.Sprintf("spans-%s-%s.tsv", workload, name)), spans); err != nil {
				return err
			}
		}
		byPhase[name] = pr
		fmt.Fprintf(os.Stderr, "elperf: phase %s done in %.2fs, %.2f CPU-s stolen by the hypervisor\n",
			name, secondsSince(t0), hostSteal()-steal0)
	}
	// A name several phases produce takes the workload's own value, else
	// the first phase's in phaseOrder.
	r := results{}
	for _, name := range append([]string{workload}, without(phaseOrder, workload)...) {
		for k, v := range byPhase[name] {
			r.set(k, v)
		}
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	return emit(os.Stdout, defs, r, o)
}

// runOrder is the order a run measures its phases in: commit first, then
// the workload's own, then the rest. The commit phase measures wall-clock
// latency, and after a heavy phase the runtime and the kernel reclaiming
// its memory delayed the loop goroutine: over ten seeds the reference
// run's p50 spread (quartile distance over median) was 0.04 run first in
// a fresh process, 0.12 after minspace and 0.17 after steady.
func runOrder(workload string) []string {
	order := []string{"commit"}
	if workload != "commit" {
		order = append(order, workload)
	}
	return append(order, without(without(phaseOrder, workload), "commit")...)
}

// hostSteal returns the CPU seconds the hypervisor has taken from this
// machine's virtual CPUs since boot (the steal column of /proc/stat), or 0
// where that is not available. Runs with steal read slow throughout: on
// a 2-vCPU x86-64 virtual machine, a reference run that lost a fifth of
// its CPU time read p50 4.7 ms against 3.4 ms with none.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / 100 // USER_HZ
}

func without(xs []string, drop string) []string {
	var out []string
	for _, x := range xs {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}

// printSelfTimes writes the per-seam span table of one phase to stderr.
func printSelfTimes(phase string, spans []span) {
	agg := selfTimes(spans)
	fmt.Fprintf(os.Stderr, "elperf: %s spans (%d): name count total_ms self_ms\n", phase, len(spans))
	for i, a := range agg {
		if a.count > 0 {
			fmt.Fprintf(os.Stderr, "  %-16s %9d %12.3f %12.3f\n", spanNames[i], a.count,
				float64(a.total)/1e6, float64(a.self)/1e6)
		}
	}
}
