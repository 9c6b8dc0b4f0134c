package obs

import "testing"

// TestDisabledHooksZeroAlloc pins the zero-cost-when-off contract for every
// instrumentation handle a hot path might hold: with observability disabled
// (nil receivers), calls must not allocate at all. Any allocation here
// changes the uninstrumented serving path's memory profile.
func TestDisabledHooksZeroAlloc(t *testing.T) {
	var (
		tr *Tracer
		lg *Logger
		rt *Tracer
		h  *Histogram
	)
	q := rt.StartRequest("op", "")
	cases := map[string]func(){
		"histogram": func() {
			h.Observe(0.001)
			h.ObserveDurationEx(0, "rid")
			_ = h.Exemplars()
		},
		"tracer": func() {
			sp := tr.Start("x")
			sp.SetAttr("k", "v")
			sp.End()
		},
		"logger": func() {
			if lg.Enabled(LevelInfo) {
				lg.Info("x")
			}
			lg.Error("x")
		},
		"request": func() {
			q2 := rt.StartRequest("op", "id")
			q2.SetAttr("k", "v")
			q2.Finish("")
		},
		"phase-cursor": func() {
			q.Phase("phase")
			q.EndPhase()
		},
		"span-tree": func() {
			s := q.StartSpan("phase")
			c := s.StartChild("sub")
			c.End()
			s.End()
		},
	}
	for name, fn := range cases {
		if got := testing.AllocsPerRun(200, fn); got != 0 {
			t.Errorf("%s: disabled hooks allocate %.1f allocs/op, want 0", name, got)
		}
	}
}
