package nfs

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
)

// TestFamBurstKeepsBatching fires a burst of concurrent invocations at one
// module log over the modelled link: a host on a 1 GbE connection with
// 10 ms each way, and a daemon on an undelayed loopback connection whose
// queue holds the whole burst. Group commit has no timer, so the burst must
// batch itself: the callers that are runnable while a leader yields join
// its batch. Every caller is answered exactly once, and the host flushes
// at most burstMaxFlushes batches (>= 8 records each on average).
func TestFamBurstKeepsBatching(t *testing.T) {
	const (
		calls           = 512
		oneWay          = 10 * time.Millisecond
		burstMaxFlushes = calls / 8
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := NewServer(t.TempDir())
	wan, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(netsim.DelayListener(ctx, wan, oneWay)) //nolint:errcheck
	go srv.Serve(local)                                  //nolint:errcheck
	t.Cleanup(func() {
		wan.Close()
		local.Close()
		srv.Shutdown()
	})

	dconn, err := Dial(local.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dconn.Close() })
	reg := smartfam.NewRegistry(dconn)
	echo := smartfam.ModuleFunc{ModuleName: "echo", Fn: func(_ context.Context, p []byte) ([]byte, error) {
		return p, nil
	}}
	if err := reg.Register(echo); err != nil {
		t.Fatal(err)
	}
	exec := func(ctx context.Context, job *sched.Job) ([]byte, error) {
		m, err := reg.Lookup(job.Module)
		if err != nil {
			return nil, err
		}
		return m.Run(ctx, job.Payload)
	}
	daemonMetrics := metrics.NewRegistry()
	d := smartfam.NewDaemon(dconn, reg,
		smartfam.WithMetrics(daemonMetrics),
		smartfam.WithPollInterval(time.Millisecond),
		smartfam.WithScheduler(sched.New(sched.Config{MaxQueueDepth: 2 * calls, Workers: 4, Metrics: daemonMetrics}, exec)))
	dctx, dcancel := context.WithCancel(ctx)
	ddone := make(chan struct{})
	go func() {
		defer close(ddone)
		_ = d.Run(dctx)
	}()
	t.Cleanup(func() {
		dcancel()
		<-ddone
	})

	raw, err := net.DialTimeout("tcp", wan.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(netsim.ProfileGigabitEthernet)
	hconn := NewClient(netsim.Throttle(ctx, netsim.Delay(ctx, raw, oneWay), link.BtoA, link.AtoB))
	t.Cleanup(func() { hconn.Close() })
	hostMetrics := metrics.NewRegistry()
	hc := smartfam.NewClient(hconn, time.Millisecond)
	hc.SetMetrics(hostMetrics)
	// One call first arms the host's response router, so the burst below
	// measures group commit, not the router's start.
	famInvokeAll(t, hc, 1)
	flushes0 := hostMetrics.Counter(metrics.FamBatchFlushes).Value()
	respFlushes0 := daemonMetrics.Counter(metrics.FamRespFlushes).Value()

	callCtx, callCancel := context.WithTimeout(ctx, 60*time.Second)
	defer callCancel()
	start := make(chan struct{})
	errs := make(chan error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("burst-%03d", i)
			out, err := hc.Invoke(callCtx, "echo", []byte(want))
			if err == nil && string(out) != want {
				err = fmt.Errorf("caller %d got %q", i, out)
			}
			errs <- err
		}(i)
	}
	began := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(began)
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Exactly once on the log: one request and one response per call.
	data, err := smartfam.ReadFrom(dconn, smartfam.LogName("echo"), 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := smartfam.ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	reqs, resps := make(map[string]int), make(map[string]int)
	for _, r := range recs {
		switch r.Kind {
		case smartfam.KindRequest:
			reqs[r.ID]++
		case smartfam.KindResponse:
			resps[r.ID]++
		}
	}
	if len(reqs) != calls+1 || len(resps) != calls+1 {
		t.Fatalf("log holds %d request and %d response IDs, want %d each", len(reqs), len(resps), calls+1)
	}
	for id, n := range reqs {
		if n != 1 || resps[id] != 1 {
			t.Fatalf("ID %s has %d requests and %d responses on the log, want 1 each", id, n, resps[id])
		}
	}

	hostFlushes := hostMetrics.Counter(metrics.FamBatchFlushes).Value() - flushes0
	respFlushes := daemonMetrics.Counter(metrics.FamRespFlushes).Value() - respFlushes0
	t.Logf("%d calls in %v: host %d request flushes (%.1f records each), daemon %d response flushes",
		calls, wall.Round(time.Millisecond), hostFlushes, float64(calls)/float64(max(hostFlushes, 1)), respFlushes)
	if hostFlushes > burstMaxFlushes {
		t.Fatalf("host made %d request flushes for %d calls, want <= %d: the burst stopped batching",
			hostFlushes, calls, burstMaxFlushes)
	}
}
