package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
)

// A metricDef names one reported quantity. The two tables below are the
// benchmark's contract; BENCHMARK.json lists the same names and units
// (TestBenchmarkJSONMatchesTables keeps them in step).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the user-visible metrics, printed by every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"search_s", "s", "lower"},
	{"el_min_blocks", "blocks", "lower"},
	{"fw_min_blocks", "blocks", "lower"},
	{"sim_tx_per_s", "tx/s", "higher"},
	{"log_writes_per_s", "writes/s", "lower"},
	{"mem_mb", "MB", "lower"},
	{"commit_p50_ms", "ms", "lower"},
	{"commit_p99_ms", "ms", "lower"},
	{"max_commit_rate", "tx/s", "higher"},
	{"bytes_per_payload_byte", "B/B", "lower"},
	{"recover_s", "s", "lower"},
}

// perLayer are the single-layer metrics, printed by every traced run.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.windows", "count", "lower"},
	{"sim.cross_lp_events", "count", "lower"},
	{"workload.self_s", "s", "lower"},
	{"core.begin_ns", "ns", "lower"},
	{"core.write_ns", "ns", "lower"},
	{"core.commit_ns", "ns", "lower"},
	{"core.flushed_ns", "ns", "lower"},
	{"core.allocs_per_tx", "allocs/tx", "lower"},
	{"core.forward_frac", "ratio", "lower"},
	{"core.commit_wait_ms", "ms", "lower"},
	{"logrec.payload_frac", "ratio", "higher"},
	{"blockdev.writes", "count", "lower"},
	{"blockdev.write_ns", "ns", "lower"},
	{"realdev.write_p50_ms", "ms", "lower"},
	{"realdev.write_p99_ms", "ms", "lower"},
	{"realdev.batch_p99_ms", "ms", "lower"},
	{"realdev.pipeline_stalls", "count", "lower"},
	{"realdev.blocks_per_batch", "blocks", "higher"},
	{"realdev.slot_fill", "ratio", "higher"},
	{"realtime.late_p50_ms", "ms", "lower"},
	{"realtime.late_p99_ms", "ms", "lower"},
	{"realtime.events_per_s", "1/s", "higher"},
	{"flushdisk.flushes_per_tx", "flushes/tx", "lower"},
	{"flushdisk.util", "ratio", "lower"},
	{"statedb.objects", "count", "lower"},
	{"recovery.blocks_read", "count", "lower"},
	{"recovery.records_per_block", "records/block", "higher"},
	{"recovery.scan_s", "s", "lower"},
	{"search.fw_s", "s", "lower"},
	{"search.el_s", "s", "lower"},
	{"runner.sims", "count", "lower"},
	{"runner.cache_hits", "count", "higher"},
	{"runner.ms_per_sim", "ms", "lower"},
	{"harness.build_ms", "ms", "lower"},
	{"multilog.cross_committed", "count", "higher"},
	{"multilog.run_s", "s", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric name: a letter or digit
// first, then at most 63 more of [A-Za-z0-9_.-].
func validName(s string) bool { return nameRe.MatchString(s) }

// validUnit reports whether s is a legal unit string.
func validUnit(s string) bool { return unitRe.MatchString(s) }

// results collects metric values by name. A phase fills in what it
// measures; set keeps the first value.
type results map[string]float64

func (r results) set(name string, v float64) {
	if _, ok := r[name]; !ok {
		r[name] = v
	}
}

// outcome is the correctness tally: transactions (or probes) attempted and
// those that were killed, unacknowledged or not recovered.
type outcome struct {
	attempted, failed uint64
	problems          []string
}

func (o *outcome) add(attempted, failed uint64) {
	o.attempted += attempted
	o.failed += failed
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints every metric of defs as a "name value unit" line and then
// the one-line JSON result. A metric the run did not produce, one that is
// not finite, or an illegal name or unit is a benchmark bug and returns an
// error before the JSON line.
func emit(w io.Writer, defs []metricDef, r results, o outcome) error {
	out := jsonResult{
		Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		if !validName(d.Name) || !validUnit(d.Unit) {
			return fmt.Errorf("metric %q has an illegal name or unit %q", d.Name, d.Unit)
		}
		v, ok := r[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (value %v)", d.Name, v)
		}
		fmt.Fprintf(w, "%-28s %16.6f %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
