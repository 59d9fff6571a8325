package main

import "time"

// hostNow is the benchmark's one read of the host clock. Every wall-time
// figure it reports (set-up, search, run, recovery and span times) is a
// difference of two hostNow readings; simulated quantities never see it.
// The allow below is the single audited wall-clock site of the package, and
// it also keeps every caller clean under detflow.
func hostNow() time.Time {
	return time.Now() //ellint:allow wallclock benchmark host timing, never fed into a simulation
}

// secondsSince returns the host seconds elapsed since t.
func secondsSince(t time.Time) float64 { return hostNow().Sub(t).Seconds() }
