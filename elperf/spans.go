package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. Each seam the traced run wraps records one of these.
const (
	spSimRun       = iota // sim.Engine.Run / realtime.Loop.Run over a measured stretch
	spCoreBegin           // workload.LogManager.BeginHinted
	spCoreWrite           // workload.LogManager.WriteData
	spCoreCommit          // workload.LogManager.Commit
	spCoreFlushed         // flushdisk completion callback -> core.Manager.Flushed
	spCoreDurable         // core.LogDevice write completion -> manager
	spWorkloadAck         // commit acknowledgement delivered to the driver
	spDevAlloc            // core.LogDevice.Alloc
	spDevWrite            // core.LogDevice.Write (call only)
	spDevIO               // core.LogDevice.Write call -> completion (async)
	spSearchFW            // search.MinFirewall
	spSearchEL            // search.MinTwoGen
	spHarnessBuild        // harness.Build
	spRecoveryRead        // realdev.ReadImage
	spRecoveryScan        // recovery.Recover
	spMultilogRun         // multilog.RunPDES
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"sim.run", "core.begin", "core.write", "core.commit", "core.flushed",
	"core.durable", "workload.ack", "dev.alloc", "dev.write", "dev.io",
	"search.fw", "search.el", "harness.build",
	"recovery.read", "recovery.scan", "multilog.run",
}

// A span is one timed interval at a seam, in nanoseconds since the
// recorder's epoch. parent is the index of the enclosing span (-1 for a
// root); spans of one transaction share tx.
type span struct {
	start, end int64
	tx         uint64
	parent     int32
	name       uint8
}

// recorder keeps every span of a traced run in memory; they are written
// out when the run ends. Synchronous spans nest through a stack (the model
// is single-threaded); asynchronous spans are added whole with an explicit
// parent. A nil *recorder records nothing.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int32
}

func newRecorder() *recorder { return &recorder{epoch: hostNow()} }

func (r *recorder) now() int64 { return int64(hostNow().Sub(r.epoch)) }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name int, tx uint64) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{start: r.now(), end: -1, tx: tx, parent: parent, name: uint8(name)})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	n := len(r.stack)
	if n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("elperf: span %d closed out of order", id))
	}
	r.stack = r.stack[:n-1]
	r.spans[id].end = r.now()
}

// add records a finished span that did not nest on the stack (an I/O or a
// timer observed from both ends).
func (r *recorder) add(name int, tx uint64, start, end int64, parent int32) {
	r.spans = append(r.spans, span{start: start, end: end, tx: tx, parent: parent, name: uint8(name)})
}

// spanAgg is the per-name aggregate of a span list.
type spanAgg struct {
	count       int
	total, self int64 // nanoseconds
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it covered by its children (the union of their
// intervals, clipped to the parent), so overlapping children are not
// subtracted twice.
func selfTimes(spans []span) [numSpanNames]spanAgg {
	// Children of span i are kids[first[i]:first[i+1]].
	first := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.parent >= 0 {
			first[s.parent+1]++
		}
	}
	for i := 1; i <= len(spans); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, first[len(spans)])
	fill := append([]int32(nil), first[:len(spans)]...)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	var agg [numSpanNames]spanAgg
	var iv [][2]int64
	for i, s := range spans {
		dur := s.end - s.start
		covered := int64(0)
		if kids := kids[first[i]:first[i+1]]; len(kids) > 0 {
			iv = iv[:0]
			for _, k := range kids {
				a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
				if b > a {
					iv = append(iv, [2]int64{a, b})
				}
			}
			sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
			curA, curB := int64(0), int64(-1)
			for _, v := range iv {
				if v[0] > curB {
					if curB > curA {
						covered += curB - curA
					}
					curA, curB = v[0], v[1]
				} else if v[1] > curB {
					curB = v[1]
				}
			}
			if curB > curA {
				covered += curB - curA
			}
		}
		a := &agg[s.name]
		a.count++
		a.total += dur
		a.self += dur - covered
	}
	return agg
}

// meanSelfNS returns the mean self time per span of the named kind.
func meanSelfNS(agg [numSpanNames]spanAgg, name int) float64 {
	a := agg[name]
	if a.count == 0 {
		return 0
	}
	return float64(a.self) / float64(a.count)
}

// writeSpans writes the spans as tab-separated lines (name, start ns, end
// ns, parent index, tx) to path, replacing any earlier file.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "name\tstart_ns\tend_ns\tparent\ttx\n")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.start, s.end, s.parent, s.tx)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
