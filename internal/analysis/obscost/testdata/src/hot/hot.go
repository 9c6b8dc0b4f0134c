// Package hot is checked under repro/internal/fake: library code where
// direct obs calls outside obs.go / *Observed functions are violations.
package hot

import "repro/internal/obs"

// Holder shows that type references are free: fields and signatures may
// name obs types without breaking the zero-cost contract.
type Holder struct {
	Reg    *obs.Registry
	Tracer *obs.Tracer
	Log    *obs.Logger
	Rec    *obs.Tracer
}

// Hot is an uninstrumented function: it must not call into obs.
func Hot(h *Holder) {
	r := obs.NewRegistry() // want `call to obs\.NewRegistry outside an obs\.go file`
	_ = r
	h.Tracer.Start("x") // want `call to obs\.Start outside an obs\.go file`
}

// HotClosure shows closures inherit their declaration's status.
func HotClosure() func() {
	return func() {
		obs.NewTracer(0) // want `call to obs\.NewTracer outside an obs\.go file`
	}
}

// warmObserved is the sanctioned instrumented twin: calls are fine, and
// so are calls from closures declared inside it.
func warmObserved(h *Holder) {
	sp := h.Tracer.Start("y")
	defer func() { sp.End() }()
	obs.NewRegistry()
}

// loudObserved shows the narrowed exemption: metric and span calls pass,
// but the logging/flight-recorder surface does I/O and stays confined to
// obs.go even inside an *Observed function.
func loudObserved(h *Holder) {
	h.Tracer.Start("z")
	h.Log.Info("served")                // want `call to obs\.Info: the logging/flight-recorder surface does I/O`
	obs.NewLogger(nil, obs.LevelInfo)   // want `call to obs\.NewLogger: the logging/flight-recorder surface does I/O`
	q := h.Rec.StartRequest("op", "r1") // want `call to obs\.StartRequest: the logging/flight-recorder surface does I/O`
	q.StartSpan("phase")                // want `call to obs\.StartSpan: the logging/flight-recorder surface does I/O`
}

// hotLog: outside *Observed functions the logging surface reports through
// the general rule, like any other obs call.
func hotLog(h *Holder) {
	h.Log.Error("boom") // want `call to obs\.Error outside an obs\.go file`
}
