package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/logrec"
	"ellog/internal/realtime"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// parent [0,100] with children [10,30] and [20,50] (overlapping) and
	// [60,70]; the first child has a grandchild [12,15]. An async child
	// [90,120] reaches past the parent's end and is clipped to it.
	spans := []span{
		{start: 0, end: 100, parent: -1, name: spSimRun},
		{start: 10, end: 30, parent: 0, name: spCoreWrite},
		{start: 20, end: 50, parent: 0, name: spCoreCommit},
		{start: 60, end: 70, parent: 0, name: spCoreBegin},
		{start: 12, end: 15, parent: 1, name: spDevWrite},
		{start: 90, end: 120, parent: 0, name: spDevIO},
	}
	agg := selfTimes(spans)
	want := map[int]int64{
		spSimRun:     100 - (50 - 10) - (70 - 60) - (100 - 90),
		spCoreWrite:  20 - 3,
		spCoreCommit: 30,
		spCoreBegin:  10,
		spDevWrite:   3,
		spDevIO:      30,
	}
	for name, self := range want {
		if agg[name].self != self || agg[name].count != 1 {
			t.Errorf("%s: self %d count %d, want self %d count 1", spanNames[name], agg[name].self, agg[name].count, self)
		}
	}
	if agg[spSimRun].total != 100 {
		t.Errorf("sim.run total %d, want 100", agg[spSimRun].total)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	outer := rec.begin(spSimRun, 0)
	inner := rec.begin(spCoreCommit, 7)
	leaf := rec.begin(spDevWrite, 0)
	rec.end(leaf)
	rec.end(inner)
	sibling := rec.begin(spCoreBegin, 8)
	rec.end(sibling)
	rec.end(outer)
	parents := []int32{-1, outer, inner, outer}
	for i, s := range rec.spans {
		if s.parent != parents[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, spanNames[s.name], s.parent, parents[i])
		}
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if rec.spans[inner].tx != 7 {
		t.Errorf("tx id not kept")
	}
	agg := selfTimes(rec.spans)
	if got, want := agg[spSimRun].self, rec.spans[outer].end-rec.spans[outer].start-
		(rec.spans[inner].end-rec.spans[inner].start)-(rec.spans[sibling].end-rec.spans[sibling].start); got != want {
		t.Errorf("outer self %d, want %d", got, want)
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// Nearest rank: the smallest sample with at least p% at or below it.
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {1, 1}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	// The reported tail is the highest percentile with >= 10 samples
	// beyond it, with the sample count.
	for _, c := range []struct {
		n     int
		wantP float64
	}{{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {20, 50}} {
		p, v, n, ok := tail(seq(c.n))
		if !ok || p != c.wantP || n != c.n || v != percentile(seq(c.n), c.wantP) {
			t.Errorf("tail of %d samples: p%g = %g (n %d, ok %v), want p%g", c.n, p, v, n, ok, c.wantP)
		}
	}
	if _, _, n, ok := tail(seq(19)); ok || n != 19 {
		t.Errorf("19 samples support no percentile with 10 beyond it (ok %v, n %d)", ok, n)
	}
	if !supports(99, 1000) || supports(99, 999) {
		t.Errorf("p99 needs 1000 samples")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median %g, want 2.5", m)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.begin_ns", "realdev.write_p99_ms", "9lives", "a-b"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := "x"
	for len(long) < 65 {
		long += "x"
	}
	for _, bad := range []string{"", ".lead", "_lead", "has space", "slash/name", "ünï", "quote\"", long} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) || !validUnit(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad metric definition %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, benchmark has %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var setup float64
	for _, e := range spec.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Bound
		}
	}
	for _, e := range spec.EndToEnd {
		if e.Bound > setup {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
}

func TestWrappersAreTransparent(t *testing.T) {
	cfg := harness.PaperDefaults(0.4)
	cfg.Seed = 5
	cfg.LM = core.Params{Mode: core.ModeEphemeral, GenSizes: steadyGens, Recirculate: true}
	cfg.Workload.Runtime = 30 * sim.Second
	cfg.Workload.NumObjects = 100_000
	cfg.Flush.NumObjects = 100_000
	plain, err := buildSim(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain.run(cfg.Workload.Runtime)
	rec := newRecorder()
	traced, err := buildSim(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	traced.run(cfg.Workload.Runtime)
	if !reflect.DeepEqual(plain.lm.Stats(), traced.lm.Stats()) || !reflect.DeepEqual(plain.gen.Stats(), traced.gen.Stats()) {
		t.Fatalf("seams changed the simulation:\nplain  %v\ntraced %v", plain.lm.Stats(), traced.lm.Stats())
	}
	if traced.sm.devWrites == 0 || traced.sm.flushes == 0 || len(rec.spans) == 0 {
		t.Fatalf("seams saw nothing: %d writes, %d flushes, %d spans", traced.sm.devWrites, traced.sm.flushes, len(rec.spans))
	}
	var o outcome
	checkSim("plain", plain, &o)
	checkSim("traced", traced, &o)
	if len(o.problems) > 0 || o.failed > 0 || o.attempted == 0 {
		t.Fatalf("correctness checks: %+v", o)
	}
}

// nullLM acknowledges every commit on the next loop pass and logs nothing.
type nullLM struct {
	clk sim.Source
	lsn logrec.LSN
}

func (m *nullLM) BeginHinted(logrec.TxID, sim.Time) {}
func (m *nullLM) WriteData(logrec.TxID, logrec.OID, int) logrec.LSN {
	m.lsn++
	return m.lsn
}
func (m *nullLM) Commit(_ logrec.TxID, onDurable func()) { m.clk.After(0, onDurable) }
func (m *nullLM) SetKillHandler(func(logrec.TxID))       {}

func TestDueTimeSchedulingDoesNotDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two one-second wall-clock loops")
	}
	const rate, dur = 400.0, sim.Second

	loop := realtime.New(1)
	d := newDriver(loop, &nullLM{clk: loop}, nil)
	start := loop.Now() + sim.Millisecond
	d.schedule(start, start+dur, 1, rate)
	loop.Run(start + dur)
	offered := rate * dur.Seconds()
	if got := float64(d.started); got < 0.99*offered || got > offered {
		t.Errorf("due-time driver started %v of %v offered transactions", got, offered)
	}

	// The program's own generator schedules each arrival a gap after the
	// previous one fired, so timer oversleep accumulates; it is measured
	// here for comparison, not asserted (its loss depends on the host).
	gl := realtime.New(1)
	gen, err := workload.New(gl, &nullLM{clk: gl}, workload.Config{
		Mix: commitMix, ArrivalRate: rate, Runtime: dur, NumObjects: commitObjects,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	gl.Run(dur)
	t.Logf("offered %v tx in %v: due-time driver started %d, workload.Generator started %d",
		offered, dur, d.started, gen.Stats().Started)
}

func TestBacklogGrows(t *testing.T) {
	flat := []float64{1, 2, 1, 2, 1, 2, 1, 2}
	rising := []float64{0, 0, 1, 2, 4, 8, 16, 32}
	if backlogGrows(flat) || !backlogGrows(rising) {
		t.Errorf("backlogGrows(flat) = %v, backlogGrows(rising) = %v", backlogGrows(flat), backlogGrows(rising))
	}
}

func TestRunOrder(t *testing.T) {
	for workload, want := range map[string][]string{
		"commit":   {"commit", "minspace", "steady", "xshard"},
		"steady":   {"commit", "steady", "minspace", "xshard"},
		"minspace": {"commit", "minspace", "steady", "xshard"},
		"xshard":   {"commit", "xshard", "minspace", "steady"},
	} {
		if got := runOrder(workload); !reflect.DeepEqual(got, want) {
			t.Errorf("runOrder(%s) = %v, want %v", workload, got, want)
		}
	}
}

func TestWindowedSkipsStolenWindows(t *testing.T) {
	window := func(ms float64) []float64 {
		w := make([]float64, 100)
		for i := range w {
			w[i] = ms
		}
		return w
	}
	d := &driver{latMS: [][]float64{window(5), window(6), window(40), window(50), window(7)}}
	// Steal grows across windows 2 and 3 only.
	d.stealAt = []float64{1, 1, 1, 1.2, 1.5, 1.5}
	if v, used, ok := d.windowed(50); !ok || used != 3 || v != 6 {
		t.Errorf("quiet windows: got %v over %d (ok %v), want 6 over 3", v, used, ok)
	}
	// With fewer than a third of the windows quiet, every window counts.
	d.stealAt = []float64{1, 1, 1.1, 1.2, 1.5, 1.6}
	if v, used, ok := d.windowed(50); !ok || used != 5 || v != 7 {
		t.Errorf("all windows: got %v over %d (ok %v), want 7 over 5", v, used, ok)
	}
}
