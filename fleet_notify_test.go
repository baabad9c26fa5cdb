package mcsd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/fleet"
	"mcsd/internal/metrics"
	"mcsd/internal/nfs"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// logReadCounter is a host mount that counts its ReadAt calls on one
// module log: the response router's reads, which a notify that carries
// the response bytes makes unnecessary.
type logReadCounter struct {
	*nfs.Client
	log   string
	reads atomic.Int64
}

func (s *logReadCounter) ReadAt(name string, p []byte, off int64) (int, error) {
	if name == s.log {
		s.reads.Add(1)
	}
	return s.Client.ReadAt(name, p, off)
}

// startPushSD boots one SD node over dir the way mcsdd runs: a file
// service, and a word-count daemon reaching the share through a looped-back
// mount of that service (so its appends raise push notifies) with response
// group commit on. It returns the service address.
func startPushSD(t *testing.T, dir string) string {
	t.Helper()
	srv := nfs.NewServer(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // torn down via Shutdown
	loop, err := nfs.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reg := smartfam.NewRegistry(loop)
	if err := reg.Register(core.WordCountModule(core.ModuleConfig{Store: core.DirStore(dir), Workers: 1})); err != nil {
		t.Fatal(err)
	}
	daemon := smartfam.NewDaemon(loop, reg,
		smartfam.WithPollInterval(smartfam.DefaultPollInterval),
		smartfam.WithHeartbeat(-1),
		smartfam.WithWorkers(2),
		smartfam.WithResponseBatching(0, 0))
	kill := startChaosDaemon(daemon)
	t.Cleanup(func() {
		kill()
		loop.Close()
		ln.Close()
		srv.Shutdown()
	})
	return ln.Addr().String()
}

// TestFleetWordCountRidesTheNotify runs a fleet word count over two live
// SD nodes at the fleet benchmark's fragment shape (~175 KiB ranges). Each
// fragment answers with a front-coded pair run small enough that two fit
// one response batch, and a batch fits one inline notify: the host's
// routers must deliver every answer from the notifies alone — not one read
// of the module log, no fall back to polling — and the folded output must
// be byte-identical to a single-node run.
func TestFleetWordCountRidesTheNotify(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet test skipped in -short mode")
	}
	const fragBytes = 175 << 10
	corpus := workloads.GenerateTextBytes(8*fragBytes, 2012)

	refDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(refDir, "corpus.txt"), corpus, 0o644); err != nil {
		t.Fatal(err)
	}
	refParams, err := json.Marshal(core.WordCountParams{DataFile: "corpus.txt", EmitPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	refRaw, err := core.WordCountModule(core.ModuleConfig{Store: core.DirStore(refDir), Workers: 1}).
		Run(context.Background(), refParams)
	if err != nil {
		t.Fatal(err)
	}
	var ref core.WordCountOutput
	if err := core.Decode(refRaw, &ref); err != nil {
		t.Fatal(err)
	}

	hostReg := metrics.NewRegistry()
	var mounts []*logReadCounter
	nodes := make([]fleet.Node, 2)
	for i := range nodes {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "corpus.txt"), corpus, 0o644); err != nil {
			t.Fatal(err)
		}
		conn, err := nfs.Dial(startPushSD(t, dir), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		mount := &logReadCounter{Client: conn, log: smartfam.LogName(core.ModuleWordCount)}
		mounts = append(mounts, mount)
		// A one-second interval puts the router's safety scan ten seconds
		// out: only the notifies can answer in time.
		client := smartfam.NewClient(mount, time.Second)
		client.SetBatching(0, 0)
		client.SetMetrics(hostReg)
		nodes[i] = fleet.Node{Name: fmt.Sprintf("sd%d", i), Session: client}
	}
	coord := fleet.NewCoordinator(nodes, fleet.Config{AttemptTimeout: 60 * time.Second, MinStragglerAge: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := coord.WordCount(ctx, fleet.WordCountJob{
		DataFile: "corpus.txt", TotalBytes: int64(len(corpus)), FragmentBytes: fragBytes,
	})
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(fleet.CanonicalWordCount(&res.Output), fleet.CanonicalWordCount(&ref)) {
		t.Fatal("fleet output differs from the single-node reference")
	}
	if len(res.Stats.PerNode) < 2 {
		t.Fatalf("work did not spread: %v", res.Stats.PerNode)
	}
	if v := hostReg.Counter(metrics.FamDegraded).Value(); v != 0 {
		t.Fatalf("host degraded to polling %d times", v)
	}
	if v := hostReg.Counter(metrics.FamPushEvents).Value(); v == 0 {
		t.Fatal("no push notify reached the host")
	}
	for i, m := range mounts {
		if r := m.reads.Load(); r != 0 {
			t.Fatalf("sd%d: the router read the module log %d times; every response should ride its notify", i, r)
		}
	}
}
