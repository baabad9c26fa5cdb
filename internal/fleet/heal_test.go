package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// probeSession is a fakeSession whose node can be revived: attempts fail
// with a transport error and probes fail while down; after Revive both
// succeed.
type probeSession struct {
	fakeSession
	up     atomic.Bool
	probes atomic.Int64
}

func (p *probeSession) Probe(ctx context.Context) error {
	p.probes.Add(1)
	if err := ctx.Err(); err != nil {
		return err
	}
	if !p.up.Load() {
		return errors.New("smartfam: probe: heartbeat is stale")
	}
	return nil
}

func newProbeSession(name string) *probeSession {
	p := &probeSession{}
	p.fakeSession.name = name
	p.fakeSession.behave = func(ctx context.Context, id string, params []byte) ([]byte, error) {
		if !p.up.Load() {
			return nil, errors.New("smartfam: transport down")
		}
		return params, nil
	}
	return p
}

func probeConfig() Config {
	cfg := fastConfig()
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.ProbationWindow = 5 * time.Millisecond
	cfg.ProbeBackoffMax = 20 * time.Millisecond
	return cfg
}

func TestExecuteProbeRecoveryRevivesMarkedDownNode(t *testing.T) {
	// sd0 is the only holder of a replicated fragment and is down when the
	// job starts. The fragment must park, probes must notice the revival,
	// and the recovered node must serve the fragment.
	sess := newProbeSession("sd0")
	other := &fakeSession{name: "sd1", behave: echoOK}
	c := NewCoordinator([]Node{{Name: "sd0", Session: sess}, {Name: "sd1", Session: other}}, probeConfig())
	frags := []Fragment{
		{Index: 0, Key: "obj.00000.frag", Replicas: []string{"sd0"}, Params: []byte("p0")},
		{Index: 1, Key: "free#1", Params: []byte("p1")},
	}
	reviveDone := make(chan struct{})
	go func() {
		defer close(reviveDone)
		time.Sleep(60 * time.Millisecond)
		sess.up.Store(true)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, stats, err := c.Execute(ctx, "m", frags)
	<-reviveDone
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Node != "sd0" {
		t.Fatalf("replicated fragment won on %s, want the revived sd0", results[0].Node)
	}
	if stats.NodeFailures != 1 {
		t.Fatalf("NodeFailures = %d, want 1", stats.NodeFailures)
	}
	if stats.NodeRecoveries != 1 {
		t.Fatalf("NodeRecoveries = %d, want 1", stats.NodeRecoveries)
	}
	if stats.Probes < 2 {
		t.Fatalf("Probes = %d, want >= 2 (probation needs two successes)", stats.Probes)
	}
	if sess.probes.Load() < 2 {
		t.Fatalf("session saw %d probes, want >= 2", sess.probes.Load())
	}
}

func TestExecuteProbeRecoveryNotAttemptedWithoutProber(t *testing.T) {
	// A plain fake session cannot be probed: a replicated fragment whose
	// only holder dies must fail the job, not hang.
	dead := &fakeSession{name: "sd0", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		return nil, errors.New("smartfam: transport down")
	}}
	other := &fakeSession{name: "sd1", behave: echoOK}
	c := NewCoordinator([]Node{{Name: "sd0", Session: dead}, {Name: "sd1", Session: other}}, fastConfig())
	frags := []Fragment{{Index: 0, Key: "obj.00000.frag", Replicas: []string{"sd0"}, Params: []byte("p0")}}
	_, _, err := c.Execute(context.Background(), "m", frags)
	if !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestExecuteCorruptReplicaFallsBackWithoutMarkDown(t *testing.T) {
	// sd0's copy of the object is corrupt; sd1's is fine. The coordinator
	// must fall back to sd1 without marking sd0 down. sd1 answers only
	// after sd0 has been tried: an idle sd1 may steal the fragment before
	// sd0's worker is ready, and the corrupt copy must be read either way
	// (as the original attempt, or as the straggler speculation beside the
	// stolen one).
	homeTried := make(chan struct{})
	var homeOnce sync.Once
	corrupt := &fakeSession{name: "sd0", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		defer homeOnce.Do(func() { close(homeTried) })
		return nil, &smartfam.ModuleError{Module: "m", Msg: "core: wordcount: " + smartfam.ErrCorruptBlob.Error() + ": crc mismatch"}
	}}
	good := &fakeSession{name: "sd1", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		select {
		case <-homeTried:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return params, nil
	}}
	c := NewCoordinator([]Node{{Name: "sd0", Session: corrupt}, {Name: "sd1", Session: good}}, fastConfig())
	frags := []Fragment{{Index: 0, Key: "obj.00000.frag", Replicas: []string{"sd0", "sd1"}, Params: []byte("p0")}}
	results, stats, err := c.Execute(context.Background(), "m", frags)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if results[0].Node != "sd1" {
		t.Fatalf("fragment won on %s, want the surviving replica sd1", results[0].Node)
	}
	// sd1 got the fragment exactly once: re-placed after the corrupt read,
	// or stolen before it.
	if stats.CorruptReplicas != 1 || stats.ReplicaFallbacks+stats.QueueSteals != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt replica and 1 fallback or steal", stats)
	}
	if stats.NodeFailures != 0 {
		t.Fatalf("corrupt replica marked the node down: %+v", stats)
	}
	// The healthy node is still usable for other work.
	if corrupt.calls.Load() == 0 {
		t.Fatalf("home replica was never attempted")
	}
}

func TestExecuteAllReplicasCorruptFailsJob(t *testing.T) {
	bad := func(name string) *fakeSession {
		return &fakeSession{name: name, behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
			return nil, &smartfam.ModuleError{Module: "m", Msg: smartfam.ErrCorruptBlob.Error()}
		}}
	}
	c := NewCoordinator([]Node{{Name: "sd0", Session: bad("sd0")}, {Name: "sd1", Session: bad("sd1")}}, fastConfig())
	frags := []Fragment{{Index: 0, Key: "obj.00000.frag", Replicas: []string{"sd0", "sd1"}, Params: []byte("p0")}}
	_, _, err := c.Execute(context.Background(), "m", frags)
	if !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes when every replica is corrupt", err)
	}
}

func TestExecuteUnknownReplicaNodeRejected(t *testing.T) {
	c := NewCoordinator([]Node{{Name: "sd0", Session: &fakeSession{behave: echoOK}}}, fastConfig())
	frags := []Fragment{{Index: 0, Key: "k", Replicas: []string{"sd0", "ghost"}, Params: []byte("p")}}
	if _, _, err := c.Execute(context.Background(), "m", frags); err == nil {
		t.Fatal("fragment with unknown replica node accepted")
	}
}

func TestExecuteHealsCorruptReplicaAfterGather(t *testing.T) {
	// End-to-end heal-on-read against a real Store: the home copy is
	// corrupted at rest; node sessions serve object payloads from their own
	// shares with CRC verification; the job must succeed off the survivor
	// and leave the corrupt copy repaired.
	store, shares := testStore(t, 3, 2)
	ctx := context.Background()
	payload := []byte("heal on read pays the repair forward")
	const obj = "doc.00000.frag"
	if err := store.Put(ctx, obj, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	reps := store.Replicas(obj)
	corruptCopy(t, shares[reps[0]], obj)

	// Each node's session reads the named object from that node's share and
	// verifies the trailer — a miniature of the daemon-side sealed store.
	// The survivor answers only after the home copy has been read: an idle
	// survivor may steal the fragment before the home node's worker is
	// ready, and the corrupt copy must be read either way (as the original
	// attempt, or as the straggler speculation beside the stolen one).
	homeRead := make(chan struct{})
	var homeOnce sync.Once
	serve := func(node string) func(ctx context.Context, id string, params []byte) ([]byte, error) {
		return func(ctx context.Context, id string, params []byte) ([]byte, error) {
			switch node {
			case reps[0]:
				defer homeOnce.Do(func() { close(homeRead) })
			case reps[1]:
				select {
				case <-homeRead:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			raw, err := smartfam.ReadFrom(shares[node], string(params), 0)
			if err != nil {
				return nil, fmt.Errorf("read %s: %w", params, err)
			}
			p, err := smartfam.VerifyBlob(raw)
			if err != nil {
				return nil, &smartfam.ModuleError{Module: "m", Msg: err.Error()}
			}
			return p, nil
		}
	}
	var nodes []Node
	for _, name := range store.Nodes() {
		nodes = append(nodes, Node{Name: name, Session: &fakeSession{name: name, behave: serve(name)}})
	}
	cfg := fastConfig()
	cfg.Store = store
	cfg.Metrics = metrics.NewRegistry()
	c := NewCoordinator(nodes, cfg)
	frags := []Fragment{{Index: 0, Key: obj, Replicas: reps, Params: []byte(obj)}}
	results, stats, err := c.Execute(ctx, "m", frags)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !bytes.Equal(results[0].Payload, payload) {
		t.Fatalf("payload = %q, want %q", results[0].Payload, payload)
	}
	if results[0].Node != reps[1] {
		t.Fatalf("fragment won on %s, want survivor %s", results[0].Node, reps[1])
	}
	if stats.CorruptReplicas != 1 || stats.ReadRepairs != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt replica read-repaired", stats)
	}
	if v := cfg.Metrics.Counter(metrics.FleetReadRepairs).Value(); v != 1 {
		t.Fatalf("fleet.read_repairs = %d, want 1", v)
	}
	// The home copy verifies again.
	raw, err := smartfam.ReadFrom(shares[reps[0]], obj, 0)
	if err != nil {
		t.Fatalf("reread home copy: %v", err)
	}
	if _, err := smartfam.VerifyBlob(raw); err != nil {
		t.Fatalf("home copy still corrupt after heal: %v", err)
	}
}
