package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
)

// fakeSession scripts one node's behaviour per fragment correlation ID.
type fakeSession struct {
	name string
	// behave decides each attempt's outcome; called with the request's
	// correlation id and params. Safe for concurrent calls.
	behave func(ctx context.Context, id string, params []byte) ([]byte, error)
	calls  atomic.Int64
}

func (f *fakeSession) InvokeID(ctx context.Context, module, id string, params []byte) ([]byte, error) {
	f.calls.Add(1)
	return f.behave(ctx, id, params)
}

// echoOK is a behaviour that returns the params as the payload.
func echoOK(ctx context.Context, id string, params []byte) ([]byte, error) {
	return params, nil
}

func testFragments(n int) []Fragment {
	frags := make([]Fragment, n)
	for i := range frags {
		frags[i] = Fragment{Index: i, Key: fmt.Sprintf("data/corpus.txt#%d", i), Params: []byte(fmt.Sprintf("p%d", i))}
	}
	return frags
}

func fastConfig() Config {
	return Config{
		Window:          2,
		AttemptTimeout:  5 * time.Second,
		MinStragglerAge: 30 * time.Millisecond,
		ScanInterval:    5 * time.Millisecond,
	}
}

func TestExecuteGathersAllInOrder(t *testing.T) {
	nodes := []Node{
		{Name: "sd0", Session: &fakeSession{name: "sd0", behave: echoOK}},
		{Name: "sd1", Session: &fakeSession{name: "sd1", behave: echoOK}},
		{Name: "sd2", Session: &fakeSession{name: "sd2", behave: echoOK}},
	}
	c := NewCoordinator(nodes, fastConfig())
	frags := testFragments(20)
	results, stats, err := c.Execute(context.Background(), "m", frags)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if string(r.Payload) != fmt.Sprintf("p%d", i) {
			t.Fatalf("result %d payload %q", i, r.Payload)
		}
	}
	if stats.Dispatches < 20 {
		t.Fatalf("dispatches = %d", stats.Dispatches)
	}
	total := 0
	for _, n := range stats.PerNode {
		total += n
	}
	if total != 20 {
		t.Fatalf("per-node sum = %d, want 20: %v", total, stats.PerNode)
	}
	if stats.NodeFailures != 0 || stats.DupResults != 0 {
		t.Fatalf("unexpected failures/dups: %+v", stats)
	}
}

func TestExecuteQueueStealBalancesSlowNode(t *testing.T) {
	// sd0 serves each attempt slowly; sd1 is instant. sd1 must drain its
	// own queue and then steal from sd0's rather than idle.
	slow := &fakeSession{name: "sd0", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(40 * time.Millisecond):
		}
		return params, nil
	}}
	fast := &fakeSession{name: "sd1", behave: echoOK}
	cfg := fastConfig()
	cfg.MinStragglerAge = time.Hour // isolate stealing from speculation
	c := NewCoordinator([]Node{{Name: "sd0", Session: slow}, {Name: "sd1", Session: fast}}, cfg)
	results, stats, err := c.Execute(context.Background(), "m", testFragments(24))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 24 {
		t.Fatalf("got %d results", len(results))
	}
	if stats.QueueSteals == 0 {
		t.Fatalf("fast node never stole work: %+v", stats)
	}
	if stats.PerNode["sd1"] <= stats.PerNode["sd0"] {
		t.Fatalf("slow node completed more: %v", stats.PerNode)
	}
}

func TestExecuteSpeculationAndFirstWinsDedup(t *testing.T) {
	// Fragment p0's original attempt hangs until a speculative attempt on
	// the other node wins; the original then returns late and must be
	// dropped by first-wins dedup. A hostage fragment (p1) keeps the job
	// open until well after the late duplicate has been delivered, so the
	// dedup is observable in Stats.
	var mu sync.Mutex
	held := make(map[string]chan struct{}) // p0's correlation id -> release
	origReturned := make(chan struct{})
	var hangNode atomic.Value
	behave := func(node string) func(ctx context.Context, id string, params []byte) ([]byte, error) {
		return func(ctx context.Context, id string, params []byte) ([]byte, error) {
			switch string(params) {
			case "p0":
				mu.Lock()
				ch, ok := held[id]
				first := !ok
				if first {
					ch = make(chan struct{})
					held[id] = ch
					hangNode.Store(node)
				}
				mu.Unlock()
				if first {
					// Original attempt: block until the speculative one won.
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-ch:
					}
					close(origReturned)
					return []byte(node + ":late"), nil
				}
				// Speculative attempt on another node: succeed, then
				// release the original.
				defer close(ch)
				return []byte(node + ":spec"), nil
			case "p1":
				// Hostage: finish only after the late original's result has
				// had ample time to reach the coordinator.
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-origReturned:
				}
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(100 * time.Millisecond):
				}
				return params, nil
			default:
				return params, nil
			}
		}
	}
	nodes := []Node{
		{Name: "sd0", Session: &fakeSession{name: "sd0", behave: behave("sd0")}},
		{Name: "sd1", Session: &fakeSession{name: "sd1", behave: behave("sd1")}},
	}
	c := NewCoordinator(nodes, fastConfig())
	results, stats, err := c.Execute(context.Background(), "m", testFragments(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
	if stats.Speculations == 0 {
		t.Fatalf("no speculation launched: %+v", stats)
	}
	if stats.DupResults == 0 {
		t.Fatalf("late original was not deduped: %+v", stats)
	}
	r0 := results[0]
	if !strings.HasSuffix(string(r0.Payload), ":spec") {
		t.Fatalf("fragment 0 won by %q, want the speculative attempt", r0.Payload)
	}
	if !r0.Speculated {
		t.Fatalf("fragment 0 not marked speculated: %+v", r0)
	}
	if hn := hangNode.Load().(string); r0.Node == hn {
		t.Fatalf("winning node %s is the hanging node", r0.Node)
	}
	if r0.Attempts < 2 {
		t.Fatalf("fragment 0 attempts = %d", r0.Attempts)
	}
}

// TestExecuteNoSpeculationWithoutMedian runs one equally slow attempt per
// node, each pinned Home and each well past MinStragglerAge before any
// completes. With no completed attempt there is no median to straggle
// behind, so nothing may be speculated; once the first lands, the others
// are within the median of it.
func TestExecuteNoSpeculationWithoutMedian(t *testing.T) {
	slow := func(ctx context.Context, id string, params []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(150 * time.Millisecond):
		}
		return params, nil
	}
	nodes := []Node{
		{Name: "sd0", Session: &fakeSession{name: "sd0", behave: slow}},
		{Name: "sd1", Session: &fakeSession{name: "sd1", behave: slow}},
		{Name: "sd2", Session: &fakeSession{name: "sd2", behave: slow}},
	}
	c := NewCoordinator(nodes, fastConfig())
	frags := testFragments(3)
	for i := range frags {
		frags[i].Home = nodes[i].Name
	}
	results, stats, err := c.Execute(context.Background(), "m", frags)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Node != nodes[i].Name {
			t.Fatalf("fragment %d ran on %s, not its home %s", i, r.Node, nodes[i].Name)
		}
	}
	if stats.Speculations != 0 || stats.Dispatches != 3 {
		t.Fatalf("%d speculations in %d dispatches, want 0 in 3", stats.Speculations, stats.Dispatches)
	}

	frags[0].Home = "ghost"
	if _, _, err := c.Execute(context.Background(), "m", frags); err == nil {
		t.Fatal("unknown home node accepted")
	}
}

func TestExecuteNodeFailureRePlaces(t *testing.T) {
	// sd1 dies on every attempt with a transport error; its fragments must
	// re-place onto survivors and the job still completes exactly once.
	dead := &fakeSession{name: "sd1", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		return nil, errors.New("smartfam: append: connection reset")
	}}
	nodes := []Node{
		{Name: "sd0", Session: &fakeSession{name: "sd0", behave: echoOK}},
		{Name: "sd1", Session: dead},
		{Name: "sd2", Session: &fakeSession{name: "sd2", behave: echoOK}},
	}
	c := NewCoordinator(nodes, fastConfig())
	results, stats, err := c.Execute(context.Background(), "m", testFragments(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 30 {
		t.Fatalf("got %d results", len(results))
	}
	if stats.NodeFailures != 1 {
		t.Fatalf("NodeFailures = %d, want 1", stats.NodeFailures)
	}
	if stats.MovedFragments == 0 {
		t.Fatalf("no fragments moved off the dead node: %+v", stats)
	}
	if stats.PerNode["sd1"] != 0 {
		t.Fatalf("dead node completed work: %v", stats.PerNode)
	}
	seen := make(map[int]bool)
	for _, r := range results {
		if seen[r.Index] {
			t.Fatalf("fragment %d completed twice", r.Index)
		}
		seen[r.Index] = true
	}
}

func TestExecuteFailoverMatchesRingRank(t *testing.T) {
	// A fragment orphaned by a node death must land on the next node in
	// its preference list — the placement a fresh ring without the dead
	// node would choose.
	dead := &fakeSession{name: "sd0", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		return nil, errors.New("smartfam: transport down")
	}}
	ok0 := &fakeSession{name: "sd1", behave: echoOK}
	ok1 := &fakeSession{name: "sd2", behave: echoOK}
	c := NewCoordinator([]Node{
		{Name: "sd0", Session: dead}, {Name: "sd1", Session: ok0}, {Name: "sd2", Session: ok1},
	}, fastConfig())
	// Use exactly one fragment owned by the dead node so its landing spot
	// is observable.
	var frag Fragment
	found := false
	for i := 0; i < 1000 && !found; i++ {
		key := fmt.Sprintf("probe#%d", i)
		if owner, _ := c.ring.Owner(key); owner == "sd0" {
			frag = Fragment{Index: 0, Key: key, Params: []byte("p")}
			found = true
		}
	}
	if !found {
		t.Fatal("no key owned by sd0 in 1000 probes")
	}
	results, stats, err := c.Execute(context.Background(), "m", []Fragment{frag})
	if err != nil {
		t.Fatal(err)
	}
	wantNode := c.ring.Rank(frag.Key)[1]
	if results[0].Node != wantNode {
		t.Fatalf("fragment failed over to %s, want rank[1] = %s", results[0].Node, wantNode)
	}
	if stats.MovedFragments != 1 || stats.NodeFailures != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestExecuteModuleErrorFailsFast(t *testing.T) {
	bad := &fakeSession{name: "sd0", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		return nil, &smartfam.ModuleError{Module: "m", Msg: "core: bad parameters"}
	}}
	c := NewCoordinator([]Node{{Name: "sd0", Session: bad}}, fastConfig())
	_, _, err := c.Execute(context.Background(), "m", testFragments(3))
	var merr *smartfam.ModuleError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v, want ModuleError", err)
	}
}

func TestExecuteQueueFullRequeues(t *testing.T) {
	// The node sheds the first two attempts of every fragment, then
	// accepts: backpressure must requeue, not fail over.
	var mu sync.Mutex
	shed := make(map[string]int)
	session := &fakeSession{name: "sd0", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		mu.Lock()
		shed[id]++
		n := shed[id]
		mu.Unlock()
		if n <= 2 {
			return nil, &smartfam.ModuleError{Module: "m", Msg: sched.ErrQueueFull.Error()}
		}
		return params, nil
	}}
	c := NewCoordinator([]Node{{Name: "sd0", Session: session}}, fastConfig())
	results, stats, err := c.Execute(context.Background(), "m", testFragments(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	if stats.QueueFullRequeues != 10 {
		t.Fatalf("QueueFullRequeues = %d, want 10", stats.QueueFullRequeues)
	}
	if stats.NodeFailures != 0 {
		t.Fatalf("backpressure failed the node over: %+v", stats)
	}
}

func TestExecuteSingleShedderReportsQueueFull(t *testing.T) {
	// The only node sheds every attempt: after the requeue cap there is no
	// other node to re-place onto, and the caller must see backpressure
	// (retry later), not a fleet without nodes.
	session := &fakeSession{name: "sd0", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		return nil, &smartfam.ModuleError{Module: "m", Msg: sched.ErrQueueFull.Error()}
	}}
	c := NewCoordinator([]Node{{Name: "sd0", Session: session}}, fastConfig())
	_, stats, err := c.Execute(context.Background(), "m", testFragments(1))
	if !errors.Is(err, sched.ErrQueueFull) || errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want sched.ErrQueueFull and not ErrNoNodes", err)
	}
	if stats.QueueFullRequeues != queueFullRequeueCap || stats.NodeFailures != 0 {
		t.Fatalf("stats = %+v, want %d requeues and no node failure", stats, queueFullRequeueCap)
	}
}

func TestExecuteAllNodesDown(t *testing.T) {
	die := func(ctx context.Context, id string, params []byte) ([]byte, error) {
		return nil, errors.New("smartfam: transport down")
	}
	c := NewCoordinator([]Node{
		{Name: "sd0", Session: &fakeSession{name: "sd0", behave: die}},
		{Name: "sd1", Session: &fakeSession{name: "sd1", behave: die}},
	}, fastConfig())
	_, _, err := c.Execute(context.Background(), "m", testFragments(4))
	if !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestExecuteContextCancel(t *testing.T) {
	hang := &fakeSession{name: "sd0", behave: func(ctx context.Context, id string, params []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	cfg := fastConfig()
	cfg.AttemptTimeout = 0
	c := NewCoordinator([]Node{{Name: "sd0", Session: hang}}, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		select {
		case <-ctx.Done():
		case <-time.After(30 * time.Millisecond):
			cancel()
		}
	}()
	_, _, err := c.Execute(ctx, "m", testFragments(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancel()
}

func TestExecuteEmpty(t *testing.T) {
	c := NewCoordinator([]Node{{Name: "sd0", Session: &fakeSession{behave: echoOK}}}, fastConfig())
	results, _, err := c.Execute(context.Background(), "m", nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty execute = %v, %v", results, err)
	}
}

func TestExecuteDuplicateFragmentIndexRejected(t *testing.T) {
	c := NewCoordinator([]Node{{Name: "sd0", Session: &fakeSession{behave: echoOK}}}, fastConfig())
	frags := []Fragment{{Index: 1, Key: "a"}, {Index: 1, Key: "b"}}
	if _, _, err := c.Execute(context.Background(), "m", frags); err == nil {
		t.Fatal("duplicate index accepted")
	}
}
