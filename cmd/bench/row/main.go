// Command row prints ns/op, B/op and allocs/op of one internal/benchsuite
// row, or exits 3 without it; reading Name and Func only, it builds over
// older suites too.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"github.com/pdftsp/pdftsp/internal/benchsuite"
)

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: row <name> <gomaxprocs> <benchtime>")
		os.Exit(2)
	}
	testing.Init()
	procs, err := strconv.Atoi(os.Args[2])
	if err = cmp.Or(err, flag.Set("test.benchtime", os.Args[3])); err != nil {
		fmt.Fprintln(os.Stderr, "row:", err)
		os.Exit(2)
	}
	for _, bm := range benchsuite.Suite() {
		if bm.Name == os.Args[1] {
			runtime.GOMAXPROCS(procs)
			if r := testing.Benchmark(bm.Func); r.N > 0 {
				fmt.Println(float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
				os.Exit(0)
			}
			fmt.Fprintln(os.Stderr, "row: benchmark failed:", bm.Name)
			os.Exit(1)
		}
	}
	os.Exit(3)
}
