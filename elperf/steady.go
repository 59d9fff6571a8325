package main

import (
	"reflect"
	"runtime"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/recovery"
	"ellog/internal/sim"
)

// The steady workload: one long single-goroutine EL simulation at the
// paper's frame (40% long transactions, 100 TPS, 10^7 objects, 10 flush
// drives at 25 ms), recirculating, with generations sized well above the
// minimum so nothing is killed.
const (
	steadyWarm = 60 * sim.Second // log filled, flush queues in steady state
	// steadySimPerHost is simulated seconds run per host second of budget,
	// so a run measures about the budget on a 2-CPU x86-64 host.
	steadySimPerHost = 400
	steadySetups     = 5
	steadyChunks     = 10
)

var steadyGens = []int{32, 96}

func steadyConfig(seed uint64, measured sim.Time) harness.Config {
	cfg := harness.PaperDefaults(0.40)
	cfg.Seed = seed
	cfg.LM = core.Params{Mode: core.ModeEphemeral, GenSizes: steadyGens, Recirculate: true}
	cfg.Workload.Runtime = steadyWarm + measured
	return cfg
}

// steadyMeasured is the simulated stretch measured after the warm-up.
func steadyMeasured(budget float64) sim.Time {
	return sim.Time(budget*steadySimPerHost) * sim.Second
}

func steadyPhase(seed uint64, budget float64, r results, o *outcome) error {
	measured := steadyMeasured(budget)
	cfg := steadyConfig(seed, measured)
	var st *simStack
	var setups []float64
	for i := 0; i < steadySetups; i++ {
		st = nil
		runtime.GC()
		t0 := hostNow()
		var err error
		if st, err = buildSim(cfg, nil); err != nil {
			return err
		}
		st.run(steadyWarm)
		setups = append(setups, secondsSince(t0))
	}
	// The measured stretch runs in equal chunks of simulated time; the
	// reported rate is the median chunk's, so a burst of host noise moves
	// a few chunks rather than the result.
	w0 := st.dev.Writes()
	var rates []float64
	for i := 1; i <= steadyChunks; i++ {
		c := st.lm.CommitCount()
		host := st.run(steadyWarm + measured*sim.Time(i)/steadyChunks)
		rates = append(rates, float64(st.lm.CommitCount()-c)/host)
	}
	r.set("setup_s", median(setups))
	r.set("sim_tx_per_s", median(rates))
	r.set("log_writes_per_s", float64(st.dev.Writes()-w0)/measured.Seconds())
	r.set("mem_mb", liveHeapMB())
	runtime.KeepAlive(st)
	checkSim("steady", st, o)
	return nil
}

// steadyTraced runs the measured stretch twice, untraced and traced, and
// holds the traced run to the untraced run's simulated statistics.
func steadyTraced(seed uint64, budget float64, r results, o *outcome) ([]span, error) {
	measured := steadyMeasured(budget)
	cfg := steadyConfig(seed, measured)

	plain, err := buildSim(cfg, nil)
	if err != nil {
		return nil, err
	}
	hostPlain := plain.run(steadyWarm)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := plain.lm.CommitCount()
	hostPlain += plain.run(steadyWarm + measured)
	runtime.ReadMemStats(&ms1)
	committed := plain.lm.CommitCount() - c0
	events := plain.eng.Fired()
	lmPlain, wlPlain := plain.lm.Stats(), plain.gen.Stats()
	plain = nil

	rec := newRecorder()
	st, err := buildSim(cfg, rec)
	if err != nil {
		return nil, err
	}
	hostTraced := st.run(steadyWarm + measured)
	lm, wl := st.lm.Stats(), st.gen.Stats()
	if !reflect.DeepEqual(lm, lmPlain) || !reflect.DeepEqual(wl, wlPlain) {
		o.fail("steady: traced run's simulated statistics differ from the untraced run's")
	}
	agg := selfTimes(rec.spans)
	sm := st.sm
	r.set("sim.events", float64(events))
	r.set("sim.ns_per_event", hostPlain*1e9/float64(events))
	r.set("workload.self_s", float64(agg[spSimRun].self)/1e9)
	setCoreSpans(r, agg)
	r.set("core.allocs_per_tx", float64(ms1.Mallocs-ms0.Mallocs)/float64(committed))
	r.set("core.forward_frac", float64(lm.Forwarded)/float64(lm.AppendedRecs))
	r.set("blockdev.writes", float64(sm.devWrites))
	r.set("blockdev.write_ns", meanSelfNS(agg, spDevWrite))
	r.set("flushdisk.flushes_per_tx", float64(sm.flushes)/float64(wl.Committed))
	r.set("flushdisk.util", flushUtil(sm.flushes-lm.Flush.Forced, cfg, lm.Elapsed))
	r.set("statedb.objects", float64(st.db.Len()))
	r.set("trace.overhead_frac", hostTraced/hostPlain-1)
	checkSim("steady traced", st, o)
	return rec.spans, nil
}

// setCoreSpans reports the logging manager's mean self time per call.
func setCoreSpans(r results, agg [numSpanNames]spanAgg) {
	r.set("core.begin_ns", meanSelfNS(agg, spCoreBegin))
	r.set("core.write_ns", meanSelfNS(agg, spCoreWrite))
	r.set("core.commit_ns", meanSelfNS(agg, spCoreCommit))
	r.set("core.flushed_ns", meanSelfNS(agg, spCoreFlushed))
}

// flushUtil is the flush array's utilization counted from outside: the
// scheduled flush completions seen at the callback (forced flushes also
// arrive there, out of band), times the transfer time, over the drives'
// combined elapsed time.
func flushUtil(flushes uint64, cfg harness.Config, elapsed sim.Time) float64 {
	return float64(flushes) * cfg.Flush.Transfer.Seconds() /
		(float64(cfg.Flush.Drives) * elapsed.Seconds())
}

// checkSim holds a finished simulation to the correctness rules: nothing
// killed, no emergency space, and single-pass recovery of the crash image
// at the final instant reproduces exactly the acknowledged commits.
func checkSim(what string, st *simStack, o *outcome) {
	wl := st.gen.Stats()
	lm := st.lm.Stats()
	o.add(wl.Started, wl.Killed)
	if lm.Insufficient() {
		o.fail("%s: disk budget insufficient (%d killed, %d emergency blocks)", what, lm.Killed, lm.EmergencyBlocks)
	}
	recovered, _, err := recovery.Recover(st.dev, st.db, 0)
	if err == nil {
		err = recovery.VerifyOracle(recovered, st.gen.Oracle())
	}
	if err != nil {
		o.fail("%s: recovery: %v", what, err)
	}
}

// liveHeapMB is the live heap after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
