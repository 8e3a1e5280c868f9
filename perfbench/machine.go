package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workingSetNote is printed with every run: the figures cannot support a
// claim about memory bandwidth.
const workingSetNote = "hot data (density grid <= 64x64, <= 16k pins) fits in a per-core L2 and the whole RSS in L3: no memory-bandwidth claim can rest on these figures"

// machineFacts describes the host the numbers were taken on. Facts that the
// kernel does not expose read "unknown".
func machineFacts() [][2]string {
	return [][2]string{
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"cpu", cpuModel()},
		{"caches", cacheSizes()},
		{"note", workingSetNote},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists CPU 0's caches as level+type=size, e.g. "L1d=48K L2=2048K".
func cacheSizes() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var parts []string
	for _, d := range dirs {
		level, size, typ := readTrim(d, "level"), readTrim(d, "size"), readTrim(d, "type")
		if level == "" || size == "" {
			continue
		}
		suffix := ""
		switch typ {
		case "Data":
			suffix = "d"
		case "Instruction":
			suffix = "i"
		}
		parts = append(parts, "L"+level+suffix+"="+size)
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, " ")
}

func readTrim(dir, name string) string {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
