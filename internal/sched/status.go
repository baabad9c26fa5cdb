package sched

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"mcsd/internal/metrics"
)

// TenantStatus is one tenant's view in a Status snapshot.
type TenantStatus struct {
	Name   string `json:"name"`
	Queued int    `json:"queued"`
	// Served counts the tenant's dispatches — the fair-queuing clock.
	Served int64 `json:"served"`
}

// Status is a point-in-time snapshot of the scheduler, JSON-encodable so
// the SD daemon can publish it on the share for mcsdctl's queue verb.
type Status struct {
	Queued        int   `json:"queued"`
	Running       int   `json:"running"`
	MaxQueueDepth int   `json:"max_queue_depth"`
	Workers       int   `json:"workers"`
	ReservedBytes int64 `json:"reserved_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`

	Submitted          int64 `json:"submitted"`
	Completed          int64 `json:"completed"`
	Failed             int64 `json:"failed"`
	Cancelled          int64 `json:"cancelled"`
	QueueFullRejects   int64 `json:"queue_full_rejects"`
	AdmissionDeferrals int64 `json:"admission_deferrals"`
	// WaitMeanMs and WaitMaxMs summarise time spent queued before
	// admission.
	WaitMeanMs int64 `json:"wait_mean_ms"`
	WaitMaxMs  int64 `json:"wait_max_ms"`

	Tenants []TenantStatus `json:"tenants,omitempty"`

	// Extra carries publisher-side counters that are not the scheduler's
	// own — the SD daemon folds its recovery/dedupe/corruption metrics in
	// here so mcsdctl's journal verb can read them from the same snapshot.
	Extra map[string]int64 `json:"extra,omitempty"`
}

// Status snapshots the scheduler.
func (s *Scheduler) Status() Status {
	s.mu.Lock()
	st := Status{
		Queued:        s.queued,
		Running:       s.running,
		MaxQueueDepth: s.cfg.depth(),
		Workers:       s.cfg.workers(),
		ReservedBytes: s.reserved,
		BudgetBytes:   s.budget,
	}
	for _, t := range s.tenants {
		if len(t.queue) == 0 && t.served == 0 {
			continue
		}
		st.Tenants = append(st.Tenants, TenantStatus{
			Name: t.name, Queued: len(t.queue), Served: t.served,
		})
	}
	s.mu.Unlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })

	st.Submitted = s.metrics.Counter(metrics.SchedSubmitted).Value()
	st.Completed = s.metrics.Counter(metrics.SchedCompleted).Value()
	st.Failed = s.metrics.Counter(metrics.SchedFailed).Value()
	st.Cancelled = s.metrics.Counter(metrics.SchedCancelled).Value()
	st.QueueFullRejects = s.metrics.Counter(metrics.SchedQueueFullRejects).Value()
	st.AdmissionDeferrals = s.metrics.Counter(metrics.SchedAdmissionDeferrals).Value()
	wait := s.metrics.Timer(metrics.SchedWait)
	st.WaitMeanMs = wait.Mean().Milliseconds()
	st.WaitMaxMs = wait.Max().Milliseconds()
	return st
}

// MarshalStatus encodes a snapshot for the share's queue-status file.
func MarshalStatus(st Status) ([]byte, error) {
	b, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("sched: encoding status: %w", err)
	}
	return b, nil
}

// UnmarshalStatus decodes a published queue-status file.
func UnmarshalStatus(data []byte) (Status, error) {
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		return Status{}, fmt.Errorf("sched: decoding status: %w", err)
	}
	return st, nil
}

// Format renders the snapshot as the operator-facing table mcsdctl
// prints.
func (st Status) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queue:     %d/%d waiting, %d running (%d workers)\n",
		st.Queued, st.MaxQueueDepth, st.Running, st.Workers)
	if st.BudgetBytes > 0 {
		fmt.Fprintf(&b, "memory:    %d of %d budget bytes reserved\n",
			st.ReservedBytes, st.BudgetBytes)
	}
	fmt.Fprintf(&b, "lifetime:  %d submitted, %d done, %d failed, %d cancelled\n",
		st.Submitted, st.Completed, st.Failed, st.Cancelled)
	fmt.Fprintf(&b, "pressure:  %d queue-full rejects, %d admission deferrals\n",
		st.QueueFullRejects, st.AdmissionDeferrals)
	fmt.Fprintf(&b, "wait:      mean %dms, max %dms\n", st.WaitMeanMs, st.WaitMaxMs)
	for _, t := range st.Tenants {
		fmt.Fprintf(&b, "tenant:    %-14s %d queued, served %d\n",
			t.Name, t.Queued, t.Served)
	}
	if len(st.Extra) > 0 {
		keys := make([]string, 0, len(st.Extra))
		for k := range st.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "extra:     %-28s %d\n", k, st.Extra[k])
		}
	}
	return b.String()
}
