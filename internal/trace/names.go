package trace

// The span name registry. Like internal/metrics/names.go, this is the
// single source of truth the metrickey analyzer checks Tracer.Start and
// Span.Child calls against: fixed span names are full constants,
// per-entity spans concatenate a *Prefix constant with the entity name.
const (
	// core.Runtime job spans.
	SpanJobPrefix     = "job " // + module: one root span per submitted job
	SpanHostLocal     = "host-local"
	SpanOffload       = "offload"
	SpanAttemptPrefix = "attempt " // + node name: one child per SD node tried

	// Scheduler job lifecycle.
	SpanSchedPrefix = "sched " // + module and job ID
	SpanQueued      = "queued"
	SpanRunning     = "running"
)
