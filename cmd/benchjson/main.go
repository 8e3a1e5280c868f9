// Command benchjson converts `go test -bench` text output (read from stdin)
// into the machine-readable JSON perf trajectory the Makefile's bench target
// writes to a BENCH_PR*.json file.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | benchjson > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
)

// Benchmark is one parsed result line. BytesPerOp/AllocsPerOp are pointers
// so that a measured zero (the contract the hot paths are tested against)
// serializes as an explicit 0 rather than being omitted — absent means the
// benchmark did not report allocations at all.
type Benchmark struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
}

// Report is the BENCH_PR*.json document.
type Report struct {
	// CPUs records the machine's core count.
	CPUs       int         `json:"cpus"`
	GoOS       string      `json:"goos"`
	GoArch     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches "BenchmarkFoo/sub-8  3  123456 ns/op  78 B/op  9 allocs/op"
// (the -P GOMAXPROCS suffix and the B/op / allocs/op columns are optional).
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	report := Report{CPUs: runtime.NumCPU(), GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			v, _ := strconv.ParseFloat(m[4], 64)
			b.BytesPerOp = &v
		}
		if m[5] != "" {
			v, _ := strconv.ParseInt(m[5], 10, 64)
			b.AllocsPerOp = &v
		}
		report.Benchmarks = append(report.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
