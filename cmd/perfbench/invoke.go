package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
)

// invokeOpen drives the invocation front door alone: an echo module does
// no work, so every millisecond belongs to the smartFAM client, the share
// append/notify path and the daemon's dispatch. The loop is open —
// arrivals follow a seeded Poisson schedule whatever the system does —
// because a closed loop of callers lock-steps with the group-commit
// windows and settles into one of two latency modes between identical
// runs. Latency is timed from the moment an invocation was due.
type invokeOpen struct {
	cfg   config
	block []byte // seeded bytes the parameters are cut from
	// echo is the module's body; nil is the identity. A test substitutes
	// one that is shed first.
	echo func(ctx context.Context, params []byte) ([]byte, error)

	tr     *tracer
	client *smartfam.Client
	next   uint64 // operations issued so far; makes every payload unique
	phase  int64
	broken bool         // expect something the echo cannot return (breakReference)
	shed   atomic.Int64 // invocations the SD's scheduler shed and the caller sent again
}

const (
	echoModule = "echo"
	// catchUpBurst is well under the 64 requests the SD's scheduler queue
	// holds, and sixteen times the arrival rate: a backlog clears fast.
	catchUpBurst = 16
	// shedRetries is how often a caller sends an invocation again after the
	// SD's scheduler shed it, backing off shedBackoff longer each time.
	shedRetries = 5
	shedBackoff = 2 * time.Millisecond
)

// invoke is one caller's invocation. A full scheduler queue on the SD is
// backpressure, not an answer: sched.ErrQueueFull exists so that callers
// send the request again, as mcsdctl's exit code 4 and the fleet's requeue
// do, so this caller does, a bounded number of times, and the invocation
// fails only if it is shed every time. Its latency keeps running from the
// moment it was due, and every resend is counted (loadgen.shed_retries).
// On the builder's machine the queue filled in about one quiet run in
// thirty — presumably one of the two vCPUs taken away for longer than the
// 64 ms of arrivals the queue holds while the generator kept its schedule
// on the other.
func (w *invokeOpen) invoke(ctx context.Context, params []byte) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		out, err := w.client.Invoke(ctx, echoModule, params)
		var merr *smartfam.ModuleError
		if err == nil || attempt > shedRetries || !errors.As(err, &merr) || !sched.IsQueueFullMessage(merr.Msg) {
			return out, err
		}
		w.shed.Add(1)
		time.Sleep(time.Duration(attempt) * shedBackoff)
	}
}

func (w *invokeOpen) tailQ() float64 { return 0.99 }

func (w *invokeOpen) prepare() error {
	w.block = make([]byte, 64<<10)
	rand.New(rand.NewSource(w.cfg.seed)).Read(w.block)
	return nil
}

func (w *invokeOpen) setUp(ctx context.Context, dir string, tr *tracer) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	echo := smartfam.ModuleFunc{ModuleName: echoModule, Fn: w.echo}
	if echo.Fn == nil {
		echo.Fn = func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
	}
	e := &env{hostLink: netsim.NewLink(netsim.ProfileGigabitEthernet), hostReg: metrics.NewRegistry()}
	n, err := startNode(ctx, "sd0", dir, e.hostLink, nodeOpts{workers: workers(), extra: []smartfam.Module{echo}, tr: tr})
	if err != nil {
		return nil, err
	}
	e.nodes = []*node{n}
	share := e.share(n, tr)
	w.tr = tr
	w.client = smartfam.NewClient(share, smartfam.DefaultPollInterval)
	w.client.SetBatching(0, 0)
	w.client.SetMetrics(e.hostReg)
	if e.rttMs, err = measureRTT(share, smartfam.LogName(echoModule)); err != nil {
		e.close()
		return nil, err
	}
	// A warm-up invocation or two shed while the machine stalled does not
	// make the set-up unusable; a share of them failing means it is.
	warm, err := w.openLoop(ctx, w.cfg.sizes.InvokeWarmup)
	if err == nil && warm.failed*100 > warm.attempted {
		err = fmt.Errorf("%d of %d warm-up invocations failed, the first: %s", warm.failed, warm.attempted, warm.firstFail)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (w *invokeOpen) breakReference() { w.broken = true }

func (w *invokeOpen) measure(ctx context.Context, seconds float64) (*measurement, error) {
	return w.openLoop(ctx, int(w.cfg.sizes.InvokeRate*seconds))
}

// openLoop issues n invocations on a seeded exponential schedule and
// waits for all of them.
func (w *invokeOpen) openLoop(ctx context.Context, n int) (*measurement, error) {
	if n < 1 {
		n = 1
	}
	sz := w.cfg.sizes
	w.phase++
	rng := rand.New(rand.NewSource(w.cfg.seed<<8 + w.phase))
	// Exponential gaps, scaled so the last arrival is due at exactly
	// n/rate: the schedule keeps its shape and every run of n arrivals
	// offers the same load for the same time. One arrival in every
	// 1/LargeShare, at a drawn position, carries the large parameter, so
	// every run also moves the same bytes.
	due := make([]time.Duration, n)
	params := make([][]byte, n)
	var at float64
	for i := range due {
		at += rng.ExpFloat64()
		due[i] = time.Duration(at * float64(time.Second))
	}
	stretch := float64(n) / sz.InvokeRate / at
	every := int(1/sz.LargeShare + 0.5)
	var large int
	var inputBytes int64
	for i := range params {
		due[i] = time.Duration(float64(due[i]) * stretch)
		if i%every == 0 {
			large = i + rng.Intn(every)
		}
		size := sz.SmallParam
		if i == large {
			size = sz.LargeParam
		}
		p := make([]byte, size)
		w.next++
		binary.BigEndian.PutUint64(p, w.next)
		copy(p[8:], w.block[rng.Intn(len(w.block)-size):])
		params[i] = p
	}
	want := params
	if w.broken {
		want = make([][]byte, n)
		for i, p := range params {
			want[i] = append([]byte("x"), p...)
		}
	}

	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		lateMs   = make([]float64, n)
		done     = make([]time.Time, n)
		ok       = make([]bool, n)
		errs     = make([]error, n)
	)
	// CPU is sampled once per window of arrivals, at the window's first
	// arrival: with some hundred invocations in flight there is no
	// per-invocation CPU to speak of.
	window := int(sz.InvokeRate / 2)
	var cpuMs []float64
	cpu0 := cpuNow()
	shedBefore := w.shed.Load()
	start := time.Now()
	owed := 0 // arrivals released back to back, each already past its due time
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(due[i])); d > 0 {
			time.Sleep(d)
			owed = 0
		} else if owed++; owed%catchUpBurst == 0 {
			// The generator fell behind — this process was not given the CPU
			// for a while. What it owes still goes out, timed from when it was
			// due, but catchUpBurst arrivals per millisecond at most: released
			// in one burst they would overrun the SD's scheduler queue, and the
			// shed operations would be the generator's doing, not the system's.
			time.Sleep(time.Millisecond)
		}
		if i > 0 && i%window == 0 {
			cpu1 := cpuNow()
			cpuMs, cpu0 = append(cpuMs, toMs(cpu1-cpu0)/float64(window)), cpu1
		}
		lateMs[i] = toMs(time.Since(start) - due[i])
		if inflight.Load() >= int64(sz.InflightCap) {
			errs[i] = fmt.Errorf("refused: %d invocations in flight", sz.InflightCap)
			continue // counted as failed below
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			out, err := w.invoke(ctx, params[i])
			done[i] = time.Now()
			ok[i], errs[i] = err == nil && bytes.Equal(out, want[i]), err
		}(i)
	}
	wg.Wait()
	m := &measurement{attempted: n, wall: time.Since(start), cpuMs: cpuMs, layer: map[string]float64{}}
	if len(cpuMs) == 0 { // fewer arrivals than one window: the whole phase is the sample
		m.cpuMs = []float64{toMs(cpuNow()-cpu0) / float64(n)}
	}
	for i := range ok {
		if !ok[i] {
			m.fail(fmt.Sprintf("invocation %d: echo verified false, error %v", i, errs[i]))
			continue
		}
		m.latMs = append(m.latMs, toMs(done[i].Sub(start)-due[i]))
		inputBytes += int64(len(params[i]))
	}
	m.inputBytes = inputBytes
	m.layer["loadgen.late_ms_p99"] = percentile(lateMs, 0.99)
	m.layer["loadgen.late_ms_max"] = maxOf(lateMs)
	m.layer["loadgen.shed_retries"] = float64(w.shed.Load() - shedBefore)
	if w.tr.tracing() {
		// Each verified invocation is one root span, timed from when it
		// was due, tiled by what the decorators saw of it.
		for i := range ok {
			if ok[i] {
				dueAt := start.Add(due[i])
				root := w.tr.add(i, spanOp, dueAt, done[i], -1, "")
				w.tr.tileInvocation(i, root, dueAt, done[i], params[i])
			}
		}
	}
	return m, nil
}
