// Package hot is checked under repro/internal/fake: library code where
// direct obs calls outside obs.go are violations.
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

// warmObserved: a name ending in Observed earns no exemption, and its
// closures are checked like any other code.
func warmObserved(h *Holder) {
	sp := h.Tracer.Start("y")   // want `call to obs\.Start outside an obs\.go file`
	defer func() { sp.End() }() // want `call to obs\.End outside an obs\.go file`
	obs.NewRegistry()           // want `call to obs\.NewRegistry outside an obs\.go file`
}

// loudObserved: the logging and flight-recorder surface reports through
// the same rule as metrics and spans.
func loudObserved(h *Holder) {
	h.Tracer.Start("z")                 // want `call to obs\.Start outside an obs\.go file`
	h.Log.Info("served")                // want `call to obs\.Info outside an obs\.go file`
	obs.NewLogger(nil, obs.LevelInfo)   // want `call to obs\.NewLogger outside an obs\.go file`
	q := h.Rec.StartRequest("op", "r1") // want `call to obs\.StartRequest outside an obs\.go file`
	q.StartSpan("phase")                // want `call to obs\.StartSpan outside an obs\.go file`
}

// hotLog: the logging surface outside obs.go is a violation.
func hotLog(h *Holder) {
	h.Log.Error("boom") // want `call to obs\.Error outside an obs\.go file`
}
