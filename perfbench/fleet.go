package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// mode selects how hhcd is run.
type mode int

const (
	modeDefault mode = iota // -listen on: how CI and operators run it
	modeBare                // no -listen: the obs layer off
	modeTraced              // -listen plus -trace <file>
)

// fleet is the hhcd processes of one workload plus the generator's
// connections to them (connection i talks to peer i mod peers).
type fleet struct {
	daemons []*daemon
	conns   []*conn
	traces  []string // -trace file per peer (traced mode)
	redials atomic.Int64
	errs    firstErr
}

// startFleet spawns the workload's peers and dials every connection. The
// returned duration runs from the first spawn to the last connection
// being usable.
func (b *bench) startFleet(m mode) (*fleet, time.Duration, error) {
	w := b.w
	n := w.peers
	ports, err := freePorts(2 * n)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	f := &fleet{}
	for i := 0; i < n; i++ {
		args := []string{"-m", strconv.Itoa(w.m), "-addr", "127.0.0.1:0"}
		if n > 1 {
			args = []string{"-m", strconv.Itoa(w.m), "-addr", ports[i],
				"-peers", strings.Join(ports[:n], ","), "-self", strconv.Itoa(i)}
		}
		listen := ""
		if m != modeBare {
			listen = ports[n+i]
			args = append(args, "-listen", listen)
		}
		if m == modeTraced {
			tf := filepath.Join(b.dir, fmt.Sprintf("%s-hhcd%d.jsonl", w.name, i))
			f.traces = append(f.traces, tf)
			args = append(args, "-trace", tf)
		}
		d, err := startDaemon(b.hhcd, args, listen)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.daemons = append(f.daemons, d)
	}
	for i, proto := range w.protos {
		c, err := dialConn(f.daemons[i%n].addr, proto, &f.redials, &f.errs)
		if err != nil {
			f.stop()
			return nil, 0, fmt.Errorf("dial %s: %w", f.daemons[i%n].addr, err)
		}
		f.conns = append(f.conns, c)
	}
	return f, time.Since(start), nil
}

func (f *fleet) stop() {
	for _, c := range f.conns {
		c.rc.Close()
	}
	for _, d := range f.daemons {
		d.stop()
	}
}

// cpu is the fleet's total CPU time.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, d := range f.daemons {
		c, err := readCPU(d.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// probeAll reads every peer.
func (f *fleet) probeAll() ([]snapshot, error) {
	out := make([]snapshot, len(f.daemons))
	for i, d := range f.daemons {
		s, err := probe(d.listen)
		if err != nil {
			return nil, fmt.Errorf("probe hhcd %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// deltas is the fleet-wide change between two probes.
type deltas struct {
	counter map[string]int64
	mem     map[string]uint64
}

var deltaCounters = []string{
	"pathsvc_requests_total", "pathsvc_coalesced_total",
	"pathsvc_degraded_total", "pathsvc_shed_total",
	"cache_hits_total", "cache_misses_total", "cache_inflight_waits_total", "cache_evictions_total",
	"cluster_forwarded_total", "cluster_forward_errors_total", "cluster_degraded_local_total",
	"obs_trace_dropped_total",
}

var deltaMem = []string{"Mallocs", "TotalAlloc", "NumGC"}

func diff(before, after []snapshot) deltas {
	d := deltas{counter: map[string]int64{}, mem: map[string]uint64{}}
	for i := range before {
		if before[i].metrics == nil {
			continue
		}
		for _, name := range deltaCounters {
			d.counter[name] += counterDelta(before[i].metrics, after[i].metrics, name)
		}
		for _, name := range deltaMem {
			if after[i].mem[name] >= before[i].mem[name] {
				d.mem[name] += after[i].mem[name] - before[i].mem[name]
			}
		}
	}
	return d
}

// rss sums the peers' peak resident set sizes in bytes.
func (f *fleet) rss() (int64, error) {
	var total int64
	for _, d := range f.daemons {
		n, err := readHWM(d.pid())
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
