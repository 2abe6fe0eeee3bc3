// oracle reproduces Table 1: the limit-study analysis of ordered irregular
// parallelism (§2.2) — maximum and window-bounded parallelism, task sizes
// and footprints, and the ideal-TLS parallelism of the sequential
// implementations.
//
// Usage:
//
//	oracle -scale small
//	oracle -scale medium -maxtasks 200000
//
// Per-app analyses run concurrently (-workers); output is identical for
// every worker count.
package main

import (
	"flag"
	"log"
	"os"
	"runtime"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/harness"
)

func main() {
	scaleF := flag.String("scale", "small", "input scale: tiny, small, medium, large")
	maxTasks := flag.Int("maxtasks", 0, "bound the profiled task count (0 = all)")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent per-app analyses on the host")
	flag.Parse()

	scale, err := bench.ParseScale(*scaleF)
	if err != nil {
		log.Fatal(err)
	}
	suite := harness.NewSuite(scale)
	suite.SetWorkers(*workers)
	rows := suite.Table1(*maxTasks)
	harness.PrintTable1(os.Stdout, rows)
}
