// Package bench poses as a root-only package (the benchmark harness):
// what it calls is live, and nothing in it is ever reported.
package bench

import lib "prosper/internal/fixdead"

func run() { lib.BenchOnly() }

func unusedInBench() {}
