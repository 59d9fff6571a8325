package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"ellog/internal/core"
	"ellog/internal/flushdisk"
	"ellog/internal/logrec"
	"ellog/internal/realdev"
	"ellog/internal/realtime"
	"ellog/internal/recovery"
	"ellog/internal/sim"
	"ellog/internal/statedb"
	"ellog/internal/workload"
)

// The commit workload: the real backend (realdev files + realtime loop)
// driven open-loop by the benchmark's own generator with the 100x
// compressed paper mix. Every arrival, record and COMMIT is scheduled at
// its absolute due time through Loop.At, so a late timer never delays the
// ones after it, and commit latency is measured from the COMMIT's due time
// to its durable acknowledgement.
const (
	refRate = 4000.0 // reference rate, tx/s
	// latencyLimitMS is the p99 limit a ladder rung must meet.
	latencyLimitMS = 50.0
	// ladderStep is the ratio between ladder rungs (2^(1/8)).
	ladderStep = 1.0905077326652577
	// ladderStart and ladderTop index the rungs refRate*ladderStep^k tried:
	// 19027 tx/s (below the knee, which lay between 20000 and 40000 tx/s)
	// up to 64000 tx/s.
	ladderStart, ladderTop = 18, 32
	// ladderPasses is how many times the ladder is climbed; the reported
	// rate counts the passing rungs of every climb.
	ladderPasses = 3
	// rungDur is each ladder rung's length, split into rungWindows
	// latency windows of over 1000 commits at the lowest rung tried.
	rungDur       = 300 * sim.Millisecond
	rungWindows   = 3
	commitObjects = 10_000
	commitSetups  = 9
	recoverReps   = 25
	// drainGrace bounds the wait for the last acknowledgements; a ladder
	// rung that needs more than rungGrace has already missed the limit.
	drainGrace = 2 * sim.Second
	rungGrace  = 250 * sim.Millisecond
	// quietHeapLimit bounds the heap while the collector is paused.
	quietHeapLimit = 1 << 30
)

// commitMix is the compressed 80/20 mix: 10 ms and 50 ms transactions of
// two and four 100-byte records.
var commitMix = workload.Mix{
	{Name: "short-10ms", Prob: 0.8, Lifetime: 10 * sim.Millisecond, NumRecords: 2, RecordSize: 100},
	{Name: "long-50ms", Prob: 0.2, Lifetime: 50 * sim.Millisecond, NumRecords: 4, RecordSize: 100},
}

// commitGens, commitBuffers and commitThresholdK size the log for wall
// time: with the simulated defaults (4 buffers, k = 2) a real write's few
// milliseconds leave the tail claiming slots whose forwarded records are
// still in flight, and the manager conjures emergency blocks even at the
// reference rate.
var commitGens = []int{1024, 1024}

const (
	commitBuffers    = 64
	commitThresholdK = 32
)

// commitRun is one open-loop run against a fresh log directory.
type commitRun struct {
	dir  string
	loop *realtime.Loop
	dev  *realdev.Device
	db   *statedb.DB
	lm   *core.Manager
	sm   *seams // nil untraced
	drv  *driver
	host float64 // host seconds from the first arrival to the last ack
}

// buildCommit opens a log in dir and assembles the stack the way
// realdev.Build does, with the benchmark's driver in place of the
// generator and, when traced, seams in between.
func buildCommit(dir string, seed uint64, rec *recorder) (*commitRun, error) {
	p := core.Params{
		Mode: core.ModeEphemeral, GenSizes: commitGens, GroupCommitTimeout: 5 * sim.Millisecond,
		BuffersPerGen: commitBuffers, ThresholdK: commitThresholdK,
	}.WithDefaults()
	//ellint:allow detflow the commit workload exists to drive the wall-clock backend
	loop := realtime.New(seed)
	//ellint:allow detflow opening the real log starts its fsync goroutine
	dev, err := realdev.Open(loop, dir, realdev.Options{
		SlotBytes: realdev.SlotFor(p.BlockPayload, p.TxRecSize),
		Direct:    realdev.DirectOff,
	})
	if err != nil {
		return nil, err
	}
	cr := &commitRun{dir: dir, loop: loop, dev: dev, db: statedb.New()}
	var ldev core.LogDevice = dev
	onFlush := func(req flushdisk.Request) { cr.lm.Flushed(req) }
	if rec != nil {
		cr.sm = newSeams(rec)
		cr.sm.dev = dev
		ldev = devSeam{cr.sm}
		onFlush = cr.sm.onFlush(onFlush)
	}
	fc := core.FlushConfig{Drives: 10, Transfer: 25 * sim.Millisecond, NumObjects: commitObjects}
	flush := flushdisk.New(loop, fc.Drives, fc.Transfer, fc.NumObjects, onFlush)
	if cr.lm, err = core.New(loop, p, ldev, flush, cr.db); err != nil {
		dev.Abandon()
		return nil, err
	}
	var lm workload.LogManager = cr.lm
	if cr.sm != nil {
		cr.sm.lm = cr.lm
		lm = lmSeam{cr.sm}
	}
	cr.drv = newDriver(loop, lm, rec)
	return cr, nil
}

// drive offers rate tx/s for dur of loop time starting 1 ms from now, then
// waits (up to grace) for every started transaction to be settled and
// closes the device (or, if some never settled, abandons it).
func (cr *commitRun) drive(rate float64, dur sim.Time, windows int, grace sim.Time) error {
	d := cr.drv
	//ellint:allow detflow reading the wall-clock loop's time to place the first arrival
	start := cr.loop.Now() + sim.Millisecond
	d.schedule(start, start+dur, windows, rate)
	t0 := hostNow()
	//ellint:allow detflow the commit workload runs on wall time
	cr.loop.Run(start + dur + commitMix[1].Lifetime)
	deadline := start + dur + grace
	//ellint:allow detflow draining the real device on wall time
	for d.open() > 0 && cr.loop.Now() < deadline {
		cr.dev.Seal()
		//ellint:allow detflow draining the real device on wall time
		cr.loop.Run(cr.loop.Now() + sim.Millisecond)
	}
	cr.host = secondsSince(t0)
	if d.open() > 0 {
		// Still behind: Close would run the loop on and fire the pending
		// transactions' timers into a closed device. Crash it instead;
		// the files are a legitimate crash image.
		return cr.dev.Abandon()
	}
	//ellint:allow detflow closing the real device waits for its fsync goroutine
	return cr.dev.Close()
}

// remove deletes the run's log directory.
func (cr *commitRun) remove() { os.RemoveAll(cr.dir) }

// driver is the open-loop load generator. Randomness comes from the loop's
// seeded stream, so a seed fixes the transaction schedule.
type driver struct {
	clk sim.Source
	lm  workload.LogManager
	rng *rand.Rand
	rec *recorder

	nextTid logrec.TxID
	held    map[logrec.OID]bool
	oracle  map[logrec.OID]logrec.LSN

	started, acked, killed uint64
	starved                uint64 // records not written: every object held
	payload                uint64
	from, window           sim.Time    // first arrival, latency window length
	latMS                  [][]float64 // COMMIT due -> durable ack, by arrival window
	stealAt                []float64   // hostSteal at each window boundary
	arrivalLateMS          []float64   // arrival fire - due, in order
	timerLateMS            []float64   // every driver timer, traced runs only
	dead                   map[logrec.TxID]bool
}

type tx struct {
	id   logrec.TxID
	due  sim.Time
	typ  *workload.TxType
	oids [4]logrec.OID
	lsns [4]logrec.LSN
	n    int
}

func newDriver(clk sim.Source, lm workload.LogManager, rec *recorder) *driver {
	d := &driver{
		clk: clk, lm: lm, rng: clk.Rand(), rec: rec,
		held:   make(map[logrec.OID]bool),
		oracle: make(map[logrec.OID]logrec.LSN),
		dead:   make(map[logrec.TxID]bool),
	}
	lm.SetKillHandler(func(id logrec.TxID) {
		d.killed++
		d.dead[id] = true
	})
	return d
}

// windowed returns the median over the arrival windows of each window's
// p-th percentile commit latency (ms), and the number of windows it took.
// It takes the windows in which the hypervisor took no CPU time when at
// least a third of them are such, and all of them otherwise. ok is false
// unless every window holds enough samples to support p.
func (d *driver) windowed(p float64) (v float64, used int, ok bool) {
	var all, quiet []float64
	for i, w := range d.latMS {
		if !supports(p, len(w)) {
			return math.Inf(1), 0, false
		}
		q := percentile(sortedCopy(w), p)
		all = append(all, q)
		if i+1 < len(d.stealAt) && d.stealAt[i+1] == d.stealAt[i] {
			quiet = append(quiet, q)
		}
	}
	if 3*len(quiet) >= len(all) && len(quiet) > 0 {
		all = quiet
	}
	return median(all), len(all), len(all) > 0
}

// allLatencies returns every commit latency of the run, sorted.
func (d *driver) allLatencies() []float64 {
	var all []float64
	for _, w := range d.latMS {
		all = append(all, w...)
	}
	return sortedCopy(all)
}

// open counts started transactions not yet acknowledged or killed.
func (d *driver) open() uint64 { return d.started - d.acked - d.killed }

// schedule offers rate tx/s with arrivals due at from + k/rate, k >= 0,
// up to until. Each arrival schedules the next at its absolute due time.
// Latencies are kept per window of arrivals.
func (d *driver) schedule(from, until sim.Time, windows int, rate float64) {
	gap := float64(sim.Second) / rate
	d.from, d.window = from, (until-from)/sim.Time(windows)
	d.latMS = make([][]float64, windows)
	d.stealAt = make([]float64, 0, windows+1)
	for i := 0; i <= windows; i++ {
		d.clk.At(from+sim.Time(i)*d.window, func() { d.stealAt = append(d.stealAt, hostSteal()) })
	}
	var arrive func(k int)
	arrive = func(k int) {
		due := from + sim.Time(float64(k)*gap)
		late := d.late(due)
		d.arrivalLateMS = append(d.arrivalLateMS, late)
		if next := from + sim.Time(float64(k+1)*gap); next < until {
			d.clk.At(next, func() { arrive(k + 1) })
		}
		d.begin(due)
	}
	d.clk.At(from, func() { arrive(0) })
}

// late returns how late (ms) a timer due at due fired, recording it for
// traced runs.
func (d *driver) late(due sim.Time) float64 {
	l := float64(d.clk.Now()-due) / float64(sim.Millisecond)
	if d.rec != nil {
		d.timerLateMS = append(d.timerLateMS, l)
	}
	return l
}

func (d *driver) pick() *workload.TxType {
	u := d.rng.Float64()
	acc := 0.0
	for i := range commitMix {
		acc += commitMix[i].Prob
		if u < acc {
			return &commitMix[i]
		}
	}
	return &commitMix[len(commitMix)-1]
}

func (d *driver) begin(due sim.Time) {
	d.nextTid++
	t := &tx{id: d.nextTid, due: due, typ: d.pick()}
	d.started++
	d.lm.BeginHinted(t.id, 0)
	step := (t.typ.Lifetime - workload.DefaultEpsilon) / sim.Time(t.typ.NumRecords)
	for j := 1; j <= t.typ.NumRecords; j++ {
		at := due + sim.Time(j)*step
		d.clk.At(at, func() { d.write(t, at) })
	}
	at := due + t.typ.Lifetime
	d.clk.At(at, func() { d.commit(t, at) })
}

func (d *driver) write(t *tx, due sim.Time) {
	if d.rec != nil {
		d.late(due)
	}
	if d.dead[t.id] {
		return
	}
	oid, ok := d.freeOID()
	if !ok {
		// Every object is held by an unacknowledged transaction: the run
		// is so far behind that the record cannot be written.
		d.starved++
		return
	}
	d.held[oid] = true
	size := t.typ.RecordSize
	t.oids[t.n], t.lsns[t.n] = oid, d.lm.WriteData(t.id, oid, size)
	t.n++
	d.payload += uint64(size)
}

// freeOID draws an object no in-flight transaction holds: uniformly, or,
// when the draws keep hitting held objects, the next free one after a
// random start. ok is false only if every object is held.
func (d *driver) freeOID() (logrec.OID, bool) {
	for i := 0; i < 64; i++ {
		if oid := logrec.OID(d.rng.Uint64N(commitObjects)); !d.held[oid] {
			return oid, true
		}
	}
	start := d.rng.Uint64N(commitObjects)
	for i := uint64(0); i < commitObjects; i++ {
		if oid := logrec.OID((start + i) % commitObjects); !d.held[oid] {
			return oid, true
		}
	}
	return 0, false
}

func (d *driver) commit(t *tx, due sim.Time) {
	if d.rec != nil {
		d.late(due)
	}
	if d.dead[t.id] {
		d.release(t)
		return
	}
	w := min(int((t.due-d.from)/d.window), len(d.latMS)-1)
	d.lm.Commit(t.id, func() {
		d.acked++
		d.latMS[w] = append(d.latMS[w], float64(d.clk.Now()-due)/float64(sim.Millisecond))
		for i := 0; i < t.n; i++ {
			if d.oracle[t.oids[i]] < t.lsns[i] {
				d.oracle[t.oids[i]] = t.lsns[i]
			}
		}
		d.release(t)
	})
}

func (d *driver) release(t *tx) {
	for i := 0; i < t.n; i++ {
		delete(d.held, t.oids[i])
	}
}

// backlogGrows reports whether arrivals in the last quarter of a run fired
// later than those in the first quarter by more than 5 ms: the loop fell
// behind its offered load.
func backlogGrows(lateMS []float64) bool {
	q := len(lateMS) / 4
	if q == 0 {
		return false
	}
	return median(lateMS[len(lateMS)-q:])-median(lateMS[:q]) > 5
}

func runDir(base string, seed uint64, tag string) string {
	return filepath.Join(base, fmt.Sprintf("commit-%d-%d-%s", os.Getpid(), seed, tag))
}

// commitDur is the reference run's length for a budget, and refWindows
// the number of latency windows it is split into, each at least 0.3 s
// long: 1200 commits at the reference rate, 12 of them beyond its p99.
func commitDur(budget float64) sim.Time { return sim.Time(budget * 0.45 * float64(sim.Second)) }

func refWindows(dur sim.Time) int { return max(1, int(dur/(300*sim.Millisecond))) }

// driveQuiet runs the reference rate for dur with the garbage collector
// paused, as the recovery timings are, and its latencies are read per
// window. A collection stalls the loop goroutine for 10 to 20 ms and lands
// in about half of the windows, so with the collector running the median
// window's tail measured where those cycles fell rather than the commit
// path; fsync and host stalls hit a few windows, which the median passes
// over. The collector's cost shows in max_commit_rate, whose ladder runs
// with it on, and the whole run's tail is printed beside the result. A
// memory limit backs the pause up.
func driveQuiet(cr *commitRun, dur sim.Time) error {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(quietHeapLimit)
	defer func() {
		debug.SetMemoryLimit(limit)
		debug.SetGCPercent(gc)
	}()
	return cr.drive(refRate, dur, refWindows(dur), drainGrace)
}

// logBase holds the commit runs' log directories. Each run removes its
// own; clearing the base first also drops those of an interrupted run.
var logBase = filepath.Join(spanDir, "logs")

func commitPhase(seed uint64, budget float64, r results, o *outcome) error {
	base := logBase
	if err := os.RemoveAll(base); err != nil {
		return err
	}
	// Set-up: open the log and assemble the stack, several times.
	var setups []float64
	var ref *commitRun
	for i := 0; i < commitSetups; i++ {
		if ref != nil {
			ref.dev.Abandon()
			ref.remove()
		}
		t0 := hostNow()
		var err error
		if ref, err = buildCommit(runDir(base, seed, "ref"), seed, nil); err != nil {
			return err
		}
		setups = append(setups, secondsSince(t0))
	}
	defer ref.remove()
	w0, err := wchar()
	if err != nil {
		return err
	}
	if err := driveQuiet(ref, commitDur(budget)); err != nil {
		return err
	}
	w1, err := wchar()
	if err != nil {
		return err
	}
	p50, _, ok50 := ref.drv.windowed(50)
	p99, used, ok99 := ref.drv.windowed(99)
	if !ok50 || !ok99 {
		return fmt.Errorf("reference run: too few acknowledged commits per window for a p99")
	}
	r.set("setup_s", median(setups))
	r.set("commit_p50_ms", p50)
	r.set("commit_p99_ms", p99)
	r.set("bytes_per_payload_byte", float64(w1-w0)/float64(ref.drv.payload))
	all := ref.drv.allLatencies()
	p, v, n, _ := tail(all)
	fmt.Fprintf(os.Stderr, "elperf: commit reference %.0f tx/s on %s: %d acks, whole-run p50 %.3f ms, p99 %.3f ms, p%g %.3f ms; median of %d of %d windows p50 %.3f ms, p99 %.3f ms\n",
		refRate, fsType(ref.dir), n, percentile(all, 50), percentile(all, 99), p, v, used, len(ref.drv.latMS), p50, p99)
	fmt.Fprintf(os.Stderr, "elperf: reference windows p99 (ms) / steal (ms):")
	for i, w := range ref.drv.latMS {
		fmt.Fprintf(os.Stderr, " %.2f/%.0f", percentile(sortedCopy(w), 99), 1e3*(ref.drv.stealAt[i+1]-ref.drv.stealAt[i]))
	}
	fmt.Fprintln(os.Stderr)
	checkCommit("commit reference", ref, o)

	// Each timed recovery starts from a collected heap with the collector
	// paused, so the figure is the recovery's own work rather than where
	// the collector's pacing happened to land.
	var times []float64
	gc := debug.SetGCPercent(-1)
	for i := 0; i < recoverReps; i++ {
		runtime.GC()
		t0 := hostNow()
		_, _, err := recoverDir(ref, nil)
		times = append(times, secondsSince(t0))
		if err != nil {
			debug.SetGCPercent(gc)
			return err
		}
	}
	debug.SetGCPercent(gc)
	r.set("recover_s", median(times))
	fmt.Fprintf(os.Stderr, "elperf: recovery of the reference files: %d reps, min %.4f median %.4f max %.4f s\n",
		len(times), slices.Min(times), median(times), slices.Max(times))

	// Each climb's passing rungs are counted (Spearman-Karber): a rung
	// failed by a host stall below the knee costs one step instead of
	// ending the climb, and the mean over climbs is finer than a step.
	var rungs []float64
	for pass := 0; pass < ladderPasses; pass++ {
		n, err := ladder(seed, base, o)
		if err != nil {
			return err
		}
		rungs = append(rungs, n)
	}
	r.set("max_commit_rate", refRate*math.Pow(ladderStep, mean(rungs)))
	return nil
}

// ladder climbs the geometric rate ladder from rung ladderStart, first
// descending while the start rung fails, until two rungs in a row fail. It
// returns the climb's knee estimate in rungs: the rung below the lowest
// one tried counts as passed, and each passing rung tried adds one (0 if
// every rung down to the first fails).
func ladder(seed uint64, base string, o *outcome) (float64, error) {
	try := func(k int) (bool, error) {
		rate := refRate * math.Pow(ladderStep, float64(k))
		// Every rung starts from a collected heap, so the collections
		// within it do not depend on what ran before.
		runtime.GC()
		cr, err := buildCommit(runDir(base, seed, "rung"+strconv.Itoa(k)), seed, nil)
		if err != nil {
			return false, err
		}
		defer cr.remove()
		if err := cr.drive(rate, rungDur, rungWindows, rungGrace); err != nil {
			return false, err
		}
		d := cr.drv
		p99, _, _ := d.windowed(99)
		backlogged := d.starved > 0 || cr.lm.Insufficient() || backlogGrows(d.arrivalLateMS)
		o.add(d.started, d.killed)
		if d.killed > 0 {
			o.fail("commit rung %.0f tx/s: %d transactions killed", rate, d.killed)
		}
		fmt.Fprintf(os.Stderr, "elperf: rung %8.0f tx/s: %6d acks, windowed p99 %8.3f ms, %d unsettled, backlog %v\n",
			rate, d.acked, p99, d.open(), backlogged)
		return p99 <= latencyLimitMS && d.open() == 0 && !backlogged, nil
	}
	low := ladderStart
	for ; low > 0; low-- {
		ok, err := try(low)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
	}
	// The rungs between low and the start failed on the way down.
	knee, fails := low, ladderStart-low
	for k := ladderStart + 1; k <= ladderTop && fails < 2; k++ {
		ok, err := try(k)
		if err != nil {
			return 0, err
		}
		if ok {
			knee, fails = knee+1, 0
		} else {
			fails++
		}
	}
	return float64(knee), nil
}

// checkCommit holds a finished run to the durability rule: every started
// transaction was acknowledged, none killed, and recovery from the files
// reproduces exactly the acknowledged commits. Emergency log space loses
// no transaction, so it is reported rather than failed: on wall time it
// follows host stalls (one reference run that lost 2.3 CPU-s to the
// hypervisor, with a window's p99 at 62 ms, borrowed one block). A ladder
// rung that needs it fails the rate limit.
func checkCommit(what string, cr *commitRun, o *outcome) {
	d := cr.drv
	o.add(d.started, d.killed+d.open())
	if d.open() > 0 || d.killed > 0 || d.starved > 0 {
		o.fail("%s: %d unacknowledged, %d killed of %d started, %d records not written", what, d.open(), d.killed, d.started, d.starved)
	}
	if st := cr.lm.Stats(); st.EmergencyBlocks > 0 || st.RefugeeStalls > 0 {
		fmt.Fprintf(os.Stderr, "elperf: %s: the log borrowed %d emergency blocks (%d refugee stalls)\n", what, st.EmergencyBlocks, st.RefugeeStalls)
	}
	if _, _, err := recoverDir(cr, nil); err != nil {
		o.fail("%s: %v", what, err)
	}
}

// recoverDir reads the run's files and recovers them against the stable
// database, checking the result against the driver's acknowledgements. It
// returns the recovery statistics and the host seconds of the recovery
// pass alone; with a recorder, the read and the pass are spans.
func recoverDir(cr *commitRun, rec *recorder) (recovery.Result, float64, error) {
	sp := int32(-1)
	if rec != nil {
		sp = rec.begin(spRecoveryRead, 0)
	}
	im, err := realdev.ReadImage(cr.dir)
	if rec != nil {
		rec.end(sp)
		sp = rec.begin(spRecoveryScan, 0)
	}
	t0 := hostNow()
	recovered, res, err2 := recovery.Recover(im, cr.db, 0)
	scan := secondsSince(t0)
	if rec != nil {
		rec.end(sp)
	}
	if err != nil {
		return res, scan, err
	}
	if err2 != nil {
		return res, scan, err2
	}
	if err := recovery.VerifyOracle(recovered, cr.drv.oracle); err != nil {
		return res, scan, fmt.Errorf("recovery does not match the acknowledged commits: %w", err)
	}
	return res, scan, nil
}

// fsType names the filesystem holding dir, for the record: the numbers
// describe this filesystem, not a raw device.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem 0x%x", st.Type)
}

// wchar reads the bytes this process has passed to write calls so far.
func wchar() (uint64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no wchar line")
}

// commitTraced runs the reference rate untraced and then traced, and
// reports the write path's per-layer metrics from the traced run.
func commitTraced(seed uint64, budget float64, r results, o *outcome) ([]span, error) {
	base := logBase
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	dur := commitDur(budget)
	plain, err := buildCommit(runDir(base, seed, "plain"), seed, nil)
	if err != nil {
		return nil, err
	}
	defer plain.remove()
	if err := driveQuiet(plain, dur); err != nil {
		return nil, err
	}
	checkCommit("commit untraced", plain, o)

	rec := newRecorder()
	cr, err := buildCommit(runDir(base, seed, "traced"), seed, rec)
	if err != nil {
		return nil, err
	}
	defer cr.remove()
	id := rec.begin(spSimRun, 0)
	err = driveQuiet(cr, dur)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	checkCommit("commit traced", cr, o)
	res, scan, err := recoverDir(cr, rec)
	if err != nil {
		return nil, err
	}
	agg := selfTimes(rec.spans)
	sm := cr.sm
	io := sortedCopy(sm.ioMS)
	late := sortedCopy(cr.drv.timerLateMS)
	rs := cr.dev.RealStats()
	ds := cr.dev.Stats()
	setCoreSpans(r, agg)
	r.set("core.commit_wait_ms", median(sm.commitWait))
	r.set("logrec.payload_frac", float64(sm.payload)/float64(sm.wire))
	r.set("realdev.write_p50_ms", percentile(io, 50))
	r.set("realdev.write_p99_ms", percentile(io, 99))
	r.set("realdev.batch_p99_ms", rs.BatchP99MS)
	r.set("realdev.pipeline_stalls", float64(rs.PipelineStalls))
	r.set("realdev.blocks_per_batch", rs.BatchBlocksMean)
	r.set("realdev.slot_fill", float64(ds.Bytes)/(float64(ds.Writes)*float64(rs.SlotBytes)))
	r.set("realtime.late_p50_ms", percentile(late, 50))
	r.set("realtime.late_p99_ms", percentile(late, 99))
	r.set("realtime.events_per_s", float64(cr.loop.Fired())/cr.host)
	r.set("recovery.blocks_read", float64(res.BlocksRead))
	r.set("recovery.records_per_block", float64(res.RecordsRead)/float64(res.BlocksRead))
	r.set("recovery.scan_s", scan)
	plainP50, _, _ := plain.drv.windowed(50)
	tracedP50, _, _ := cr.drv.windowed(50)
	r.set("trace.overhead_frac", tracedP50/plainP50-1)
	return rec.spans, nil
}
