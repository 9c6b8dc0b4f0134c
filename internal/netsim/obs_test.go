package netsim

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

func obsConfig() Config {
	return Config{
		M: 2, Mode: MultiPathStripe, Flows: 6, MessagesPerFlow: 8,
		MessageFlits: 16, ArrivalRate: 0.01, Seed: 3,
	}
}

func TestRunRegistersMetrics(t *testing.T) {
	cfg := obsConfig()
	cfg.Obs = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(0)
	var trace bytes.Buffer
	cfg.Tracer.StreamTo(&trace)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cfg.Obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if want := "netsim_messages_generated_total " + strconv.Itoa(res.Generated); !strings.Contains(out, want) {
		t.Errorf("exposition missing %q:\n%s", want, out)
	}
	if want := "netsim_messages_delivered_total " + strconv.Itoa(res.Delivered); !strings.Contains(out, want) {
		t.Errorf("exposition missing %q", want)
	}
	for _, name := range []string{
		"netsim_flow_latency_cycles_count",
		"netsim_inflight_messages_count",
		"netsim_inflight_messages_peak",
		"netsim_makespan_cycles",
		"netsim_throughput_flits_per_cycle",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing series %s:\n%s", name, out)
		}
	}

	cfg.Tracer.StreamTo(nil)
	spans, err := obs.ReadSpans(&trace)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	for _, want := range []string{"netsim.run", "netsim.routes", "netsim.workload", "netsim.simulate", "netsim.aggregate"} {
		if !names[want] {
			t.Errorf("missing span %q; got %v", want, names)
		}
	}
}

// TestRunWithoutObsUnchanged: Obs and Tracer nil must be byte-for-byte the
// same simulation (the instrumentation only reads).
func TestRunWithoutObsUnchanged(t *testing.T) {
	plain, err := Run(obsConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := obsConfig()
	cfg.Obs = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(64)
	instr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(instr, plain) {
		t.Errorf("instrumented run differs:\n got %+v\nwant %+v", instr, plain)
	}
}

func TestPerFlowPercentiles(t *testing.T) {
	res, err := Run(obsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.P50Latency > res.P95Latency || res.P95Latency > res.P99Latency || res.P99Latency > res.MaxLatency {
		t.Errorf("aggregate percentiles not monotone: p50=%d p95=%d p99=%d max=%d",
			res.P50Latency, res.P95Latency, res.P99Latency, res.MaxLatency)
	}
	if len(res.PerFlow) != obsConfig().Flows {
		t.Fatalf("PerFlow has %d entries, want %d", len(res.PerFlow), obsConfig().Flows)
	}
	sawMeasured := false
	for i, fs := range res.PerFlow {
		if fs.P50Latency > fs.P95Latency || fs.P95Latency > fs.P99Latency {
			t.Errorf("flow %d percentiles not monotone: %+v", i, fs)
		}
		if fs.P99Latency > res.MaxLatency {
			t.Errorf("flow %d p99 %d exceeds global max %d", i, fs.P99Latency, res.MaxLatency)
		}
		if fs.P50Latency > 0 {
			sawMeasured = true
		}
	}
	if !sawMeasured {
		t.Error("no flow reported a positive p50; percentiles never computed?")
	}
}
