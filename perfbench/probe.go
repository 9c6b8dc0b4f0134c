package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// Outside-in probes of an hhcd process: /proc/<pid> for CPU and peak RSS,
// the -listen endpoints for the serving counters and the Go heap ledger.
// The parsers take the raw text so they are testable on canned input.

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// parseStatCPU returns user+system CPU time from /proc/<pid>/stat. The
// command name (field 2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// parseStatSteal returns the host's steal time from /proc/stat: the
// eighth counter of the aggregate "cpu" line, in clock ticks summed over
// CPUs.
func parseStatSteal(stat []byte) (int64, error) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat steal: %w", err)
	}
	return v, nil
}

// parseVmHWM returns the peak resident set size from /proc/<pid>/status
// in bytes.
func parseVmHWM(status []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// parseMemStats reads the "# runtime.MemStats" block that
// /debug/pprof/heap?debug=1 appends: lines of the form "# Name = value".
// Only scalar integer fields are kept.
func parseMemStats(text []byte) (map[string]uint64, error) {
	out := map[string]uint64{}
	in := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "# runtime.MemStats" {
			in = true
			continue
		}
		if !in || !strings.HasPrefix(line, "# ") {
			continue
		}
		name, val, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("memstats: %w", err)
	}
	if !in {
		return nil, fmt.Errorf("memstats: no runtime.MemStats block")
	}
	return out, nil
}

// metricPrefixes are the series families the benchmark reads from
// /metrics; everything else is skipped.
var metricPrefixes = []string{"pathsvc_", "cache_", "cluster_", "obs_"}

// parseMetrics reads Prometheus text exposition into series -> value, the
// series key being the name plus its label set exactly as exposed.
func parseMetrics(text []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		keep := false
		for _, p := range metricPrefixes {
			if strings.HasPrefix(line, p) {
				keep = true
				break
			}
		}
		if !keep {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counterDelta is after[name] - before[name], clamped at 0 (a restarted
// process resets its counters).
func counterDelta(before, after map[string]float64, name string) int64 {
	d := after[name] - before[name]
	if d < 0 {
		return 0
	}
	return int64(d)
}

// snapshot is one reading of an hhcd process's -listen endpoints (empty
// for a process without -listen).
type snapshot struct {
	metrics map[string]float64
	mem     map[string]uint64
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func readCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

func readSteal() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseStatSteal(b)
}

func readHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// probe reads the serving counters and the heap ledger of a process
// serving -listen.
func probe(listen string) (snapshot, error) {
	var s snapshot
	if listen == "" {
		return s, nil
	}
	b, err := httpGet("http://" + listen + "/metrics")
	if err != nil {
		return s, err
	}
	if s.metrics, err = parseMetrics(b); err != nil {
		return s, err
	}
	if b, err = httpGet("http://" + listen + "/debug/pprof/heap?debug=1"); err != nil {
		return s, err
	}
	s.mem, err = parseMemStats(b)
	return s, err
}
