package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"qaoa2"
)

// machine identifies the hardware and environment a result was measured
// on. Results from different machine classes are not comparable.
type machine struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	KernelTier string   `json:"kernel_tier"`
	GoVersion  string   `json:"go_version"`
	CPUModel   string   `json:"cpu_model"`
	OptOuts    []string `json:"qaoa2_env"`
}

func currentMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelTier: qaoa2.KernelTier(),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		OptOuts:    []string{},
	}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "QAOA2_") {
			m.OptOuts = append(m.OptOuts, kv)
		}
	}
	sort.Strings(m.OptOuts)
	return m
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when it cannot be read.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	v := strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB")
	kb, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
