package main

import (
	"ellog/internal/blockdev"
	"ellog/internal/core"
	"ellog/internal/flushdisk"
	"ellog/internal/harness"
	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/statedb"
	"ellog/internal/workload"
)

// seams is the traced run's instrumentation: it sits at the interfaces the
// layers already export — workload.LogManager in front of core.Manager,
// core.LogDevice in front of the device, and the completion callback given
// to flushdisk.New — records a span per call, and counts what passes.
// Nothing inside the program changes; a wrapper only forwards.
type seams struct {
	rec *recorder
	lm  workload.LogManager
	dev core.LogDevice

	payload   uint64 // data bytes handed to WriteData
	wire      uint64 // bytes handed to LogDevice.Write
	devWrites uint64
	flushes   uint64

	// ioStart is the start of the device write whose completion is being
	// delivered right now (-1 outside a completion), so an acknowledgement
	// can split its wait into seal wait and device time.
	ioStart    int64
	ioMS       []float64 // Write call -> completion, per write
	commitWait []float64 // Commit call -> write of its block, per ack
}

func newSeams(rec *recorder) *seams { return &seams{rec: rec, ioStart: -1} }

// lmSeam is the workload.LogManager face of seams.
type lmSeam struct{ *seams }

func (s lmSeam) BeginHinted(tid logrec.TxID, expected sim.Time) {
	id := s.rec.begin(spCoreBegin, uint64(tid))
	s.lm.BeginHinted(tid, expected)
	s.rec.end(id)
}

func (s lmSeam) WriteData(tid logrec.TxID, oid logrec.OID, size int) logrec.LSN {
	id := s.rec.begin(spCoreWrite, uint64(tid))
	lsn := s.lm.WriteData(tid, oid, size)
	s.rec.end(id)
	s.payload += uint64(size)
	return lsn
}

func (s lmSeam) Commit(tid logrec.TxID, onDurable func()) {
	id := s.rec.begin(spCoreCommit, uint64(tid))
	called := s.rec.spans[id].start
	s.lm.Commit(tid, func() {
		if s.ioStart >= 0 {
			s.commitWait = append(s.commitWait, float64(s.ioStart-called)/1e6)
		}
		a := s.rec.begin(spWorkloadAck, uint64(tid))
		onDurable()
		s.rec.end(a)
	})
	s.rec.end(id)
}

func (s lmSeam) SetKillHandler(fn func(logrec.TxID)) { s.lm.SetKillHandler(fn) }

// devSeam is the core.LogDevice face of seams.
type devSeam struct{ *seams }

func (s devSeam) Alloc(gen int) blockdev.BlockID {
	id := s.rec.begin(spDevAlloc, 0)
	b := s.dev.Alloc(gen)
	s.rec.end(id)
	return b
}

func (s devSeam) Write(id blockdev.BlockID, data []byte, done func(err error)) {
	sp := s.rec.begin(spDevWrite, 0)
	start := s.rec.spans[sp].start
	s.wire += uint64(len(data))
	s.devWrites++
	s.dev.Write(id, data, func(err error) {
		now := s.rec.now()
		s.rec.add(spDevIO, 0, start, now, -1)
		s.ioMS = append(s.ioMS, float64(now-start)/1e6)
		c := s.rec.begin(spCoreDurable, 0)
		prev := s.ioStart
		s.ioStart = start
		done(err)
		s.ioStart = prev
		s.rec.end(c)
	})
	s.rec.end(sp)
}

func (s devSeam) Stats() blockdev.Stats { return s.dev.Stats() }

// onFlush wraps the flush-completion callback handed to flushdisk.New.
func (s *seams) onFlush(inner func(flushdisk.Request)) func(flushdisk.Request) {
	return func(req flushdisk.Request) {
		id := s.rec.begin(spCoreFlushed, uint64(req.Tx))
		inner(req)
		s.rec.end(id)
		s.flushes++
	}
}

// simStack is an assembled simulation: the components harness.Build wires,
// reachable one by one.
type simStack struct {
	eng   *sim.Engine
	dev   *blockdev.Device
	flush *flushdisk.Array
	db    *statedb.DB
	lm    *core.Manager
	gen   *workload.Generator
	sm    *seams // nil in an untraced stack
}

// buildSim assembles cfg. Untraced (rec == nil) it is harness.Build itself;
// traced it wires the same components the same way with seams in between,
// which the transparency check then holds to identical statistics.
func buildSim(cfg harness.Config, rec *recorder) (*simStack, error) {
	if rec == nil {
		live, err := harness.Build(cfg)
		if err != nil {
			return nil, err
		}
		su := live.Setup
		return &simStack{eng: su.Eng, dev: su.Dev, flush: su.Flush, db: su.DB, lm: su.LM, gen: live.Gen}, nil
	}
	// The engine seeds exactly as harness.Build seeds it.
	eng := sim.NewEngine(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)
	p := cfg.LM.WithDefaults()
	st := &simStack{eng: eng, dev: blockdev.New(eng, p.WriteLatency), db: statedb.New(), sm: newSeams(rec)}
	st.sm.dev = st.dev
	st.flush = flushdisk.New(eng, cfg.Flush.Drives, cfg.Flush.Transfer, cfg.Flush.NumObjects,
		st.sm.onFlush(func(req flushdisk.Request) { st.lm.Flushed(req) }))
	var err error
	if st.lm, err = core.New(eng, p, devSeam{st.sm}, st.flush, st.db); err != nil {
		return nil, err
	}
	st.sm.lm = st.lm
	if st.gen, err = workload.New(eng, lmSeam{st.sm}, cfg.Workload); err != nil {
		return nil, err
	}
	st.gen.Start()
	return st, nil
}

// run drives the engine to until, inside a sim.run span when traced, and
// returns the host seconds it took.
func (st *simStack) run(until sim.Time) float64 {
	t0 := hostNow()
	if st.sm == nil {
		st.eng.Run(until)
		return secondsSince(t0)
	}
	id := st.sm.rec.begin(spSimRun, 0)
	st.eng.Run(until)
	st.sm.rec.end(id)
	return secondsSince(t0)
}
