package main

import (
	"runtime"
	"runtime/debug"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/runner"
	"ellog/internal/search"
	"ellog/internal/sim"
)

// The minspace workload: the Figure 4 searches (search.MinFirewall and
// search.MinTwoGen without recirculation) at the 5% and 40% mixes on a
// scaled frame, all probes on one runner.Pool of two workers. Batch work
// at a fixed input size, repeated with a fresh pool so no repetition is
// answered from an earlier one's cache.
const (
	minspaceRuntime = 12 * sim.Second
	minspaceObjects = 1_000_000
	minspaceWorkers = 2
	// minspaceSetPerHost is search sets per host second of budget.
	minspaceSetPerHost = 0.25
	minspaceBuilds     = 15
	buildBatch         = 20
)

var minspaceMixes = []float64{0.05, 0.40}

func minspaceBase(seed uint64, mix float64) harness.Config {
	cfg := harness.PaperDefaults(mix)
	cfg.Seed = seed
	cfg.Workload.Runtime = minspaceRuntime
	cfg.Workload.NumObjects = minspaceObjects
	cfg.Flush.NumObjects = minspaceObjects
	return cfg
}

// minima is one search set's answer: per mix, the FW queue size and the EL
// two-generation split.
type minima struct {
	fw   []int
	el   []search.TwoGenResult
	fwS  float64 // host seconds in MinFirewall
	elS  float64 // host seconds in MinTwoGen
	sims uint64
	hits uint64
}

func (m minima) fwTotal() (n int) {
	for _, v := range m.fw {
		n += v
	}
	return n
}

func (m minima) elTotal() (n int) {
	for _, v := range m.el {
		n += v.Total
	}
	return n
}

// searchSet runs every search of the set on a fresh pool. With a recorder
// each search call is a span.
func searchSet(seed uint64, rec *recorder) (minima, error) {
	pool := runner.New(minspaceWorkers)
	var m minima
	for _, mix := range minspaceMixes {
		base := minspaceBase(seed, mix)
		t0 := hostNow()
		sp := int32(-1)
		if rec != nil {
			sp = rec.begin(spSearchFW, 0)
		}
		fw, _, err := search.MinFirewall(pool, base, 192)
		if rec != nil {
			rec.end(sp)
		}
		if err != nil {
			return m, err
		}
		m.fwS += secondsSince(t0)
		t0 = hostNow()
		if rec != nil {
			sp = rec.begin(spSearchEL, 0)
		}
		el, err := search.MinTwoGen(pool, base, false, 0, 0)
		if rec != nil {
			rec.end(sp)
		}
		if err != nil {
			return m, err
		}
		m.elS += secondsSince(t0)
		m.fw = append(m.fw, fw)
		m.el = append(m.el, el)
	}
	m.sims, m.hits = pool.Stats()
	return m, nil
}

// minimaConfigs are the found minima as runnable configurations.
func minimaConfigs(seed uint64, m minima) []harness.Config {
	var out []harness.Config
	for i, mix := range minspaceMixes {
		fw := minspaceBase(seed, mix)
		fw.LM.Mode, fw.LM.GenSizes = core.ModeFirewall, []int{m.fw[i]}
		el := minspaceBase(seed, mix)
		el.LM.Mode, el.LM.GenSizes = core.ModeEphemeral, []int{m.el[i].Gen0, m.el[i].Gen1}
		out = append(out, fw, el)
	}
	return out
}

// buildMedianMS times harness.Build of the frame on its own and returns
// the median ms per build over minspaceBuilds batches of buildBatch
// builds. One build takes well under a millisecond, so, as with the
// recovery timings, each batch starts from a collected heap with the
// collector paused, and an untimed first build faults in the memory the
// others reuse. With a recorder each build is a span.
func buildMedianMS(seed uint64, rec *recorder) (float64, error) {
	cfg := minspaceBase(seed, minspaceMixes[len(minspaceMixes)-1])
	cfg.LM = core.Params{Mode: core.ModeFirewall, GenSizes: []int{192}}
	if _, err := harness.Build(cfg); err != nil {
		return 0, err
	}
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var ms []float64
	for i := 0; i < minspaceBuilds; i++ {
		runtime.GC()
		t0 := hostNow()
		for j := 0; j < buildBatch; j++ {
			sp := int32(-1)
			if rec != nil {
				sp = rec.begin(spHarnessBuild, 0)
			}
			_, err := harness.Build(cfg)
			if rec != nil {
				rec.end(sp)
			}
			if err != nil {
				return 0, err
			}
		}
		ms = append(ms, secondsSince(t0)*1e3/buildBatch)
	}
	return median(ms), nil
}

func minspacePhase(seed uint64, budget float64, r results, o *outcome) error {
	buildMS, err := buildMedianMS(seed, nil)
	if err != nil {
		return err
	}
	reps := max(1, int(budget*minspaceSetPerHost+0.5))
	var times []float64
	var m minima
	for i := 0; i < reps; i++ {
		t0 := hostNow()
		if m, err = searchSet(seed, nil); err != nil {
			return err
		}
		times = append(times, secondsSince(t0))
	}
	r.set("setup_s", buildMS/1e3)
	r.set("search_s", median(times))
	r.set("el_min_blocks", float64(m.elTotal()))
	r.set("fw_min_blocks", float64(m.fwTotal()))
	for _, cfg := range minimaConfigs(seed, m) {
		st, err := buildSim(cfg, nil)
		if err != nil {
			return err
		}
		st.run(cfg.Workload.Runtime)
		checkSim("minspace minimum", st, o)
	}
	return nil
}

// minspaceTraced runs the search set once with a span per search, then
// re-runs each minimum it found through the seams: the probes themselves
// run inside the runner, where nothing can be wrapped.
func minspaceTraced(seed uint64, r results, o *outcome) ([]span, error) {
	rec := newRecorder()
	buildMS, err := buildMedianMS(seed, rec)
	if err != nil {
		return nil, err
	}
	t0 := hostNow()
	m, err := searchSet(seed, rec)
	if err != nil {
		return nil, err
	}
	wall := secondsSince(t0)
	r.set("search.fw_s", m.fwS)
	r.set("search.el_s", m.elS)
	r.set("runner.sims", float64(m.sims))
	r.set("runner.cache_hits", float64(m.hits))
	r.set("runner.ms_per_sim", wall*1e3/float64(m.sims))
	r.set("harness.build_ms", buildMS)

	var plainS, tracedS float64
	var forwarded, appended uint64
	for _, cfg := range minimaConfigs(seed, m) {
		plain, err := buildSim(cfg, nil)
		if err != nil {
			return nil, err
		}
		plainS += plain.run(cfg.Workload.Runtime)
		st, err := buildSim(cfg, rec)
		if err != nil {
			return nil, err
		}
		tracedS += st.run(cfg.Workload.Runtime)
		lm := st.lm.Stats()
		forwarded += lm.Forwarded
		appended += lm.AppendedRecs
		checkSim("minspace traced minimum", st, o)
	}
	agg := selfTimes(rec.spans)
	setCoreSpans(r, agg)
	r.set("core.forward_frac", float64(forwarded)/float64(appended))
	r.set("trace.overhead_frac", tracedS/plainS-1)
	return rec.spans, nil
}
