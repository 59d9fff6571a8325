package main

import (
	"reflect"

	"ellog/internal/core"
	"ellog/internal/multilog"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// The xshard workload: multilog.RunPDES with four shards as logical
// processes on two workers, a fifth of each shard's traffic crossing
// shards through the message-based 2PC overlay. The frame is the PDES
// speedup experiment's (5% mix, generations of 190+152 blocks, 10 flush
// drives at 3 ms per shard) at 600 rather than 900 TPS per shard: 900 is
// that experiment's edge of a healthy forwarding pipeline, and runs as
// long as these see refugee stalls there.
const (
	xshardShards  = 4
	xshardWorkers = 2
	xshardObjects = 1_000_000
	// xshardSimPerHost is simulated seconds per host second of budget.
	xshardSimPerHost = 26
	xshardSetups     = 9
	xshardChunks     = 10
	xshardRate       = 600 // tx/s per shard, local and cross together
)

func xshardConfig(seed uint64, budget float64, workers int) multilog.PDESConfig {
	return multilog.PDESConfig{
		Seed:    seed,
		Shards:  xshardShards,
		Workers: workers,
		LM:      core.Params{Mode: core.ModeEphemeral, GenSizes: []int{190, 152}, Recirculate: true},
		Flush:   core.FlushConfig{Drives: 10, Transfer: 3 * sim.Millisecond, NumObjects: xshardObjects / 8},
		Workload: workload.Config{
			Mix:         workload.PaperMix(0.05),
			ArrivalRate: xshardRate,
			Runtime:     sim.Time(budget * xshardSimPerHost * float64(sim.Second)),
		},
		CrossFrac: 0.2,
	}
}

func xshardPhase(seed uint64, budget float64, r results, o *outcome) error {
	cfg := xshardConfig(seed, budget, xshardWorkers)
	var live *multilog.PDESLive
	var setups []float64
	for i := 0; i < xshardSetups; i++ {
		live = nil
		t0 := hostNow()
		var err error
		if live, err = multilog.BuildPDES(cfg); err != nil {
			return err
		}
		setups = append(setups, secondsSince(t0))
	}
	rates, _ := runChunked(live, cfg)
	st := live.Stats()
	r.set("setup_s", median(setups))
	r.set("sim_tx_per_s", median(rates))
	checkPDES("xshard", live, st, o)
	return nil
}

// runChunked runs a built PDES system to its horizon in xshardChunks
// stretches and returns each stretch's committed transactions per host
// second, and the total host seconds. Every intermediate horizon ends a
// conservative window (a multiple of the lookahead, minus one tick), so
// the run executes exactly the windows one Run to the horizon would.
func runChunked(live *multilog.PDESLive, cfg multilog.PDESConfig) ([]float64, float64) {
	la := live.PE.Lookahead()
	chunk := cfg.Workload.Runtime / xshardChunks / la * la
	var rates []float64
	total := 0.0
	committed := func() uint64 {
		st := live.Stats()
		return st.Committed + st.CrossCommitted
	}
	for i := 1; i <= xshardChunks; i++ {
		c := committed()
		t0 := hostNow()
		if i < xshardChunks {
			live.PE.Run(sim.Time(i)*chunk - 1)
		} else {
			live.Run()
		}
		host := secondsSince(t0)
		total += host
		rates = append(rates, float64(committed()-c)/host)
	}
	return rates, total
}

// xshardTraced times the chunked two-worker run, then runs the sequential
// reference (one worker) untraced and inside a multilog.run span; all
// three simulated reports must be equal.
func xshardTraced(seed uint64, budget float64, r results, o *outcome) ([]span, error) {
	cfg2 := xshardConfig(seed, budget, xshardWorkers)
	live2, err := multilog.BuildPDES(cfg2)
	if err != nil {
		return nil, err
	}
	_, host2 := runChunked(live2, cfg2)
	st2 := live2.Stats()
	checkPDES("xshard 2 workers", live2, st2, o)

	t0 := hostNow()
	_, st1, err := multilog.RunPDES(xshardConfig(seed, budget, 1))
	if err != nil {
		return nil, err
	}
	plainS := secondsSince(t0)

	rec := newRecorder()
	t0 = hostNow()
	id := rec.begin(spMultilogRun, 0)
	live, st, err := multilog.RunPDES(xshardConfig(seed, budget, 1))
	rec.end(id)
	if err != nil {
		return nil, err
	}
	tracedS := secondsSince(t0)
	if !reflect.DeepEqual(st, st2) || !reflect.DeepEqual(st, st1) {
		o.fail("xshard: the one-worker report differs from the two-worker report")
	}
	checkPDES("xshard traced", live, st, o)
	r.set("sim.events", float64(st.Events))
	r.set("sim.ns_per_event", host2*1e9/float64(st.Events))
	r.set("sim.windows", float64(st.Windows))
	r.set("sim.cross_lp_events", float64(st.Delivered))
	r.set("multilog.cross_committed", float64(st.CrossCommitted))
	r.set("multilog.run_s", host2)
	r.set("trace.overhead_frac", tracedS/plainS-1)
	return rec.spans, nil
}

// checkPDES holds a sharded run to the rules: no shard killed anything or
// ran out of space, and every cross-shard transaction committed.
func checkPDES(what string, live *multilog.PDESLive, st multilog.PDESStats, o *outcome) {
	o.add(st.Started+st.CrossStarted, st.GenKilled+st.CrossAborted)
	if st.Killed > 0 || st.GenKilled > 0 || st.CrossAborted > 0 || live.Insufficient() {
		o.fail("%s: %d killed, %d generator kills, %d cross aborts, insufficient %v", what, st.Killed, st.GenKilled, st.CrossAborted, live.Insufficient())
		for i, s := range st.PerShard {
			o.fail("%s: shard %d: %d emergency blocks, %d refugee stalls", what, i, s.EmergencyBlocks, s.RefugeeStalls)
		}
	}
}
