package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of v (0 for an empty slice); v is not
// modified.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the order statistics of sorted
// v, as Python's statistics.quantiles(method="inclusive") does.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func equalCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v { // whole counts held in float64: exact comparison is intended
			return false
		}
	}
	return true
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set size since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// readRuntime returns the bytes allocated on the heap and the GC cycles
// completed so far.
func readRuntime() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// loadDigests returns the committed job digests for the workload when seed
// is the default seed, and nil otherwise.
func loadDigests(name string, seed uint64, jobs int) ([]string, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	var all map[string][]string
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	want, ok := all[name]
	if !ok {
		return nil, nil
	}
	if len(want) != jobs {
		return nil, fmt.Errorf("digests.json: %s has %d digests for %d jobs", name, len(want), jobs)
	}
	return want, nil
}

// storeDigests records the workload's job digests in the source tree's
// digests.json, next to this file.
func storeDigests(name string, jobs []jobResult) error {
	path := filepath.Join("_perfbench", "digests.json")
	all := map[string][]string{}
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	all[name] = nil
	for _, j := range jobs {
		all[name] = append(all[name], j.digest)
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
