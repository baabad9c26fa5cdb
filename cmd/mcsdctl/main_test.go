package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/metrics"
	"mcsd/internal/nfs"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
)

// startNode runs a daemon in mcsdd's default topology — its share I/O
// looped back through the file service — with the standard modules plus
// extra, and returns the service's address and a context bound to the test.
func startNode(t *testing.T, extra []smartfam.Module, opts ...smartfam.DaemonOption) (string, context.Context) {
	t.Helper()
	dir := t.TempDir()
	srv := nfs.NewServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		ln.Close()
		srv.Shutdown()
	})
	addr := ln.Addr().String()

	loop, err := nfs.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	reg := smartfam.NewRegistry(loop)
	mods := append(core.StandardModules(core.ModuleConfig{Store: core.DirStore(dir), Workers: 1}), extra...)
	for _, m := range mods {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	done := make(chan struct{})
	opts = append([]smartfam.DaemonOption{smartfam.WithPollInterval(time.Millisecond)}, opts...)
	go func() {
		defer close(done)
		_ = smartfam.NewDaemon(loop, reg, opts...).Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return addr, ctx
}

// TestAttachedShareInvokesOverPush pins the front door mcsdctl actually
// uses: against mcsdd's default topology (daemon share I/O looped back
// through the file service) the share attach hands the runtime can push,
// and one verb through it is carried by notifies, not the polling fallback.
func TestAttachedShareInvokesOverPush(t *testing.T) {
	addr, ctx := startNode(t, nil)
	client, rt, err := attach(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var share smartfam.FS = client
	if _, ok := share.(smartfam.WatchFS); !ok {
		t.Fatal("the share mcsdctl attaches cannot push: every invocation would poll")
	}
	if err := matmul(ctx, rt, []string{"-n", "8"}); err != nil {
		t.Fatal(err)
	}
	if v := rt.Metrics().Counter(metrics.FamPushEvents).Value(); v == 0 {
		t.Fatal("host routed zero push events; the invocation ran on the polling path")
	}
}

// TestStatusSnapshotCarriesDaemonRegistry reads the published status
// snapshot the way the journal and fam verbs do: after a host retry
// reusing a request's ID, it must carry the daemon's dedupe counter and
// its push gauge by name.
func TestStatusSnapshotCarriesDaemonRegistry(t *testing.T) {
	echo := smartfam.ModuleFunc{
		ModuleName: "echo",
		Fn:         func(_ context.Context, p []byte) ([]byte, error) { return p, nil },
	}
	addr, ctx := startNode(t, []smartfam.Module{echo},
		smartfam.WithStatusInterval(5*time.Millisecond))
	client, err := mount(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	c := smartfam.NewClient(client, time.Millisecond)
	id := smartfam.NewID()
	for range 2 {
		if out, err := c.InvokeID(ctx, "echo", id, []byte("twice")); err != nil || string(out) != "twice" {
			t.Fatalf("InvokeID = (%q, %v)", out, err)
		}
	}

	// The snapshot is rewritten in place, so a read can catch it
	// half-written: only a snapshot that parses counts.
	var extra map[string]int64
	for {
		if data, err := smartfam.ReadFrom(client, smartfam.QueueStatusName, 0); err == nil {
			if st, err := sched.UnmarshalStatus(data); err == nil {
				extra = st.Extra
				if extra[metrics.DaemonDeduped] >= 1 && extra[metrics.FamPushActive] == 1 {
					return
				}
			}
		}
		select {
		case <-ctx.Done():
			t.Fatalf("snapshot never showed deduped >= 1 and push_active = 1: extra = %v", extra)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestExitCodeQueueFullRoundTrip walks sched.ErrQueueFull through the
// shape it takes on the wire: the daemon formats the rejection into a
// StatusError record's text, the host recognises that text and re-types
// it with %w, and mcsdctl's classifier must still see the sentinel via
// errors.Is and map it to exit 4.
func TestExitCodeQueueFullRoundTrip(t *testing.T) {
	// Daemon side: the rejection is %w-wrapped, then flattened to record
	// text when it crosses the share.
	wireText := fmt.Errorf("daemon: submit wordcount: %w", sched.ErrQueueFull).Error()
	if !sched.IsQueueFullMessage(wireText) {
		t.Fatalf("wire text %q not recognised as queue-full", wireText)
	}

	// Host side: the fleet coordinator re-types the recognised text once no
	// other node can take the job, and the runtime wraps it again, so the
	// sentinel survives end to end.
	err := fmt.Errorf("core: offload of %q: %w", "wordcount",
		fmt.Errorf("fleet: fragment 0: %w", sched.ErrQueueFull))
	if !errors.Is(err, sched.ErrQueueFull) {
		t.Fatal("re-typed error lost errors.Is identity")
	}
	if got := exitCode(err); got != exitQueueFull {
		t.Fatalf("exitCode = %d, want %d", got, exitQueueFull)
	}
}

// TestLogVerbPrintsRecords pins the log verb's readable view of a module
// log whose payloads travel raw: one line per record with its kind, ID,
// status, length and a quoted preview capped at 80 bytes, then the
// corrupt-line and torn-tail counts. A missing log is an unknown module.
func TestLogVerbPrintsRecords(t *testing.T) {
	share := smartfam.DirFS(t.TempDir())
	long := strings.Repeat("x", 200)
	var log []byte
	for _, r := range []smartfam.Record{
		{Kind: smartfam.KindRequest, ID: "r1", Payload: []byte("two words\nand a line")},
		{Kind: smartfam.KindResponse, ID: "r1", Status: smartfam.StatusOK, Payload: []byte(long)},
		{Kind: smartfam.KindResponse, ID: "r2", Status: smartfam.StatusError},
	} {
		line, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, line...)
	}
	log = append(log, "\nRES r3 ok =bit-flipped 00000000\nRES r4 ok =torn"...)
	if err := share.Append(smartfam.LogName("echo"), log); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := moduleLog(share, &out, []string{"echo"}); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`REQ r1 -           20 B "two words\nand a line"`,
		`RES r1 ok         200 B "` + long[:80] + `"...`,
		`RES r2 error        0 B ""`,
		`echo.log: 3 records, 1 corrupt lines, 15 B unterminated tail`,
	}, "\n") + "\n"
	if out.String() != want {
		t.Fatalf("log verb printed\n%s\nwant\n%s", out.String(), want)
	}
	if err := moduleLog(share, &out, []string{"nosuch"}); !errors.Is(err, smartfam.ErrUnknownModule) {
		t.Fatalf("log of a missing module: %v, want ErrUnknownModule", err)
	}
}

func TestExitCodeClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"generic", errors.New("boom"), exitFailure},
		{"unreachable", fmt.Errorf("%w: 127.0.0.1:9", errUnreachable), exitUnreachable},
		{"no executor", fmt.Errorf("invoke: %w", core.ErrNoExecutor), exitUnreachable},
		{"module error", fmt.Errorf("invoke: %w",
			&smartfam.ModuleError{Module: "wordcount", Msg: "bad input"}), exitModule},
		{"queue full", fmt.Errorf("core: node sd0: %w", sched.ErrQueueFull), exitQueueFull},
		// Queue-full wins over the module-error wrapper it arrives in:
		// backpressure means retry, not a broken module.
		{"queue full inside module path", fmt.Errorf("invoke: %w: %v",
			sched.ErrQueueFull, &smartfam.ModuleError{Module: "wordcount", Msg: "x"}), exitQueueFull},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestStderrLineCarriesCode pins the bugfix: classified failures always
// print their exit code and meaning to stderr; unclassified ones stay
// unadorned.
func TestStderrLineCarriesCode(t *testing.T) {
	err := fmt.Errorf("core: node sd0: %w", sched.ErrQueueFull)
	line := stderrLine(err, exitCode(err))
	if !strings.Contains(line, "(exit 4: node busy, retry later)") {
		t.Errorf("queue-full stderr line %q missing exit-code tag", line)
	}
	if !strings.HasPrefix(line, "mcsdctl: ") || !strings.HasSuffix(line, "\n") {
		t.Errorf("stderr line %q not in mcsdctl: ...\\n form", line)
	}

	for code, wantTag := range map[int]string{
		exitUnreachable: "(exit 2: node unreachable)",
		exitModule:      "(exit 3: module failed on the node)",
	} {
		if line := stderrLine(errors.New("x"), code); !strings.Contains(line, wantTag) {
			t.Errorf("stderr line for code %d = %q, want tag %q", code, line, wantTag)
		}
	}

	if line := stderrLine(errors.New("usage"), exitFailure); strings.Contains(line, "exit") {
		t.Errorf("unclassified stderr line %q should not carry a code tag", line)
	}
}
