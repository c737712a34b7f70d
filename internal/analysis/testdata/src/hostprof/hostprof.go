// Package hostprof is a prosper-lint fixture shaped like a host
// profiling clock: a monotonic-nanosecond source built on
// time.Now/time.Since. Outside the wallclock allowlist every read is a
// finding.
package hostprof

import "time"

// base anchors the monotonic clock at package init.
var base = time.Now() // want:wallclock "time.Now"

// Nanotime returns monotonic nanoseconds since process start.
func Nanotime() int64 {
	return int64(time.Since(base)) // want:wallclock "time.Since"
}

// Sleepy would also be banned outside the allowlist: scheduling by the
// host clock is as irreproducible as reading it.
func Sleepy() {
	time.Sleep(time.Millisecond) // want:wallclock "time.Sleep"
}
