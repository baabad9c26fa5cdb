package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
)

// Session is the invocation surface the coordinator needs from one SD
// node: idempotent module invocation under a caller-chosen correlation ID.
// *smartfam.Client satisfies it; tests substitute fakes.
type Session interface {
	InvokeID(ctx context.Context, module, id string, params []byte) ([]byte, error)
}

// Prober is the optional liveness surface of a Session. A marked-down node
// whose session implements Prober is re-probed on a jittered backoff and
// marked healthy again after a probation window — without it a down mark is
// permanent for the rest of the Execute call (*smartfam.Client implements
// Prober via the daemon heartbeat).
type Prober interface {
	Probe(ctx context.Context) error
}

// Node is one dispatchable SD node.
type Node struct {
	// Name is the node's placement identity — it must be stable across
	// coordinator restarts, because HRW placement hashes it.
	Name string
	// Session carries invocations to the node (a smartFAM client over the
	// node's share).
	Session Session
}

// Config tunes a Coordinator.
type Config struct {
	// Window is the per-node in-flight bound (default 2): enough to keep a
	// node's cores busy through the pipelined share without letting one
	// node absorb the whole job.
	Window int
	// AttemptTimeout bounds one fragment attempt on one node; expiry marks
	// the node down and re-places its fragments. Zero disables timeouts
	// (an unresponsive node then hangs the job).
	AttemptTimeout time.Duration
	// StragglerFactor speculates an attempt older than factor x the median
	// completed-attempt time (default 3). Nothing is speculated before an
	// attempt of the job has completed.
	StragglerFactor float64
	// MinStragglerAge floors the speculation threshold so short jobs are
	// not speculated on noise (default 500ms).
	MinStragglerAge time.Duration
	// MaxAttempts bounds concurrent attempts per fragment, the original
	// included (default 2).
	MaxAttempts int
	// ScanInterval is the straggler scan period (default 100ms).
	ScanInterval time.Duration
	// ProbeInterval is the initial delay before re-probing a marked-down
	// node whose session implements Prober, and the per-probe timeout
	// (default 250ms). Failures back the delay off exponentially.
	ProbeInterval time.Duration
	// ProbeBackoffMax caps the re-probe backoff (default 5s).
	ProbeBackoffMax time.Duration
	// ProbationWindow is how long after a first successful probe the node
	// must still answer a second one before it is marked healthy again —
	// a flapping node does not get its fragments back on one lucky probe
	// (default: ProbeInterval).
	ProbationWindow time.Duration
	// Store optionally connects the coordinator to the replicated object
	// tier: replicated fragments that hit a corrupt or lost copy during the
	// job are re-repaired through it after the gather completes
	// (heal-on-read).
	Store *Store
	// Metrics optionally records fleet.* counters and timers.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 2
	}
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = 3
	}
	if c.MinStragglerAge <= 0 {
		c.MinStragglerAge = 500 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = 100 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeBackoffMax <= 0 {
		c.ProbeBackoffMax = 5 * time.Second
	}
	if c.ProbationWindow <= 0 {
		c.ProbationWindow = c.ProbeInterval
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// queueFullRequeueCap bounds how many times one fragment is requeued to
// the same node after its scheduler shed it, before the coordinator gives
// up on that node and re-places the fragment on the next-ranked one.
const queueFullRequeueCap = 64

// ErrNoNodes reports that every node is down with work still outstanding.
var ErrNoNodes = errors.New("fleet: no healthy nodes remain")

// Coordinator fans fragment jobs out across a fleet of SD nodes:
// HRW placement decides each fragment's home node, per-node windows bound
// in-flight work, idle nodes steal queued fragments from busy ones,
// stragglers are speculatively re-executed on an idle node, and every
// attempt of a fragment shares one smartFAM correlation ID so duplicate
// executions collapse into one result (first wins; the daemon's journal
// dedups re-deliveries on its side too).
type Coordinator struct {
	cfg   Config
	ring  *Ring
	nodes []Node // sorted by name
}

// NewCoordinator returns a coordinator over the given nodes.
func NewCoordinator(nodes []Node, cfg Config) *Coordinator {
	ns := make([]Node, len(nodes))
	copy(ns, nodes)
	sort.Slice(ns, func(i, j int) bool { return ns[i].Name < ns[j].Name })
	names := make([]string, len(ns))
	for i, n := range ns {
		names[i] = n.Name
	}
	return &Coordinator{cfg: cfg.withDefaults(), ring: NewRing(names...), nodes: ns}
}

// Fragment is one scatter unit.
type Fragment struct {
	// Index identifies the fragment within the job; results return in
	// index order.
	Index int
	// Key is the placement key (conventionally "<file>#<index>"; for
	// replicated fragments, the object name on the store — heal-on-read
	// passes it straight to Store.Repair).
	Key string
	// Replicas optionally pins the fragment to the nodes holding its data
	// (preference order, Replicas[0] the home). An empty list keeps the
	// classic shared-file model where any node can run the fragment; a
	// non-empty list restricts dispatch, stealing and speculation to the
	// holders, and a holder that serves corrupt data is excluded per
	// fragment instead of marked down.
	Replicas []string
	// Home optionally names the node a shared-file fragment is first
	// queued on, in place of the ring owner of Key: a planner that balances
	// the load itself pins its choice here. Unlike Replicas it restricts
	// nothing; stealing, speculation and failover along Rank(Key) work as
	// for any shared-file fragment, and the Store never heals it.
	Home string
	// Params is the encoded module parameter payload.
	Params []byte
}

// FragmentResult is one completed fragment.
type FragmentResult struct {
	Index    int
	Node     string // node whose attempt won
	Payload  []byte
	Attempts int // attempts launched for this fragment in total
	// Speculated reports the winning attempt was a straggler re-execution
	// rather than the first dispatch.
	Speculated bool
	Elapsed    time.Duration // winning attempt's invoke time
}

// Stats aggregates one Execute call's dispatch behaviour.
type Stats struct {
	Dispatches        int // attempts handed to node sessions
	Speculations      int // straggler re-executions launched
	DupResults        int // late duplicates dropped by first-wins dedup
	QueueSteals       int // fragments idle nodes stole from busy queues
	QueueFullRequeues int // attempts shed by node schedulers and requeued
	NodeFailures      int // nodes marked down
	MovedFragments    int // fragments re-placed off a down node
	Probes            int // liveness probes launched at marked-down nodes
	NodeRecoveries    int // down nodes probed back to healthy
	CorruptReplicas   int // replica reads that failed CRC verification
	ReplicaFallbacks  int // fragments re-placed onto a surviving replica
	ReadRepairs       int // corrupt copies rewritten by post-job healing
	ReReplicated      int // missing copies recreated by post-job healing
	HealErrors        int // objects post-job healing could not restore
	// PerNode counts completed fragments by winning node.
	PerNode map[string]int
}

// attemptJob is one dispatch to one node's workers.
type attemptJob struct {
	frag   int
	module string
	reqID  string
	params []byte
	spec   bool
}

// attemptResult is what a worker reports back.
type attemptResult struct {
	frag    int
	node    string
	payload []byte
	err     error
	elapsed time.Duration
	spec    bool
}

// probeState tracks one marked-down node's path back to health.
type probeState struct {
	prober    Prober
	nextProbe time.Time
	backoff   time.Duration
	inFlight  bool
	firstOK   time.Time // first successful probe; zero until one lands
}

// probeOutcome is one probe goroutine's report.
type probeOutcome struct {
	node string
	err  error
}

// jitter spreads d over [d/2, d) so a fleet of probes does not thunder in
// lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// nodeRun is the per-node dispatch state of one Execute call.
type nodeRun struct {
	node     Node
	work     chan attemptJob // Window slots: a launch never waits for a worker
	queue    []int           // fragment indices awaiting dispatch here
	inflight int
	healthy  bool
}

// attemptKey identifies one in-flight attempt. A fragment runs at most
// once per node at a time (speculation always picks a node not already
// running it), so the pair is unique.
type attemptKey struct {
	frag int
	node string
}

// Execute scatters the fragments across the fleet and gathers every
// result, in fragment-index order. It returns early on an application
// (module) error — those are deterministic and re-execution cannot fix
// them — and keeps going through node failures as long as one node
// remains.
func (c *Coordinator) Execute(ctx context.Context, module string, frags []Fragment) ([]FragmentResult, Stats, error) {
	return c.execute(ctx, module, frags, nil)
}

// execute is Execute with an optional win hook: onWin sees each fragment's
// first successful result as it lands, in arrival order, on the gather
// loop itself — late duplicates and failed attempts never reach it. An
// error from onWin fails the job like a module error.
func (c *Coordinator) execute(ctx context.Context, module string, frags []Fragment, onWin func(FragmentResult) error) ([]FragmentResult, Stats, error) {
	stats := Stats{PerNode: make(map[string]int)}
	if len(frags) == 0 {
		return nil, stats, nil
	}
	execStart := time.Now()
	defer func() {
		c.cfg.Metrics.Timer(metrics.FleetExecute).Observe(time.Since(execStart))
	}()

	// Workers get a cancellable child context so Execute's return tears
	// the whole dispatch down.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	nodes := make(map[string]*nodeRun, len(c.nodes))
	order := make([]string, 0, len(c.nodes)) // deterministic iteration
	var wg sync.WaitGroup
	// Buffered so a worker finishing during teardown never blocks.
	results := make(chan attemptResult, len(c.nodes)*c.cfg.Window+len(frags))
	for _, n := range c.nodes {
		nr := &nodeRun{node: n, work: make(chan attemptJob, c.cfg.Window), healthy: true}
		nodes[n.Name] = nr
		order = append(order, n.Name)
		for w := 0; w < c.cfg.Window; w++ {
			wg.Add(1)
			go func(nr *nodeRun) {
				defer wg.Done()
				c.worker(ctx, module, nr, results)
			}(nr)
		}
	}
	defer wg.Wait()
	defer cancel() // runs before wg.Wait: release workers first

	// Plan: every fragment gets a home node from the ring and one
	// correlation ID reused by all of its attempts — smartFAM's
	// idempotency key, so a node that already ran the fragment replays
	// its journaled response instead of recomputing.
	reqIDs := make([]string, len(frags))
	fragByIndex := make(map[int]*Fragment, len(frags))
	for i := range frags {
		f := &frags[i]
		if _, dup := fragByIndex[f.Index]; dup {
			return nil, stats, fmt.Errorf("fleet: duplicate fragment index %d", f.Index)
		}
		fragByIndex[f.Index] = f
		reqIDs[i] = smartfam.NewID()
		if len(f.Replicas) > 0 {
			for _, rn := range f.Replicas {
				if _, known := nodes[rn]; !known {
					return nil, stats, fmt.Errorf("fleet: fragment %d: unknown replica node %q", f.Index, rn)
				}
			}
			nodes[f.Replicas[0]].queue = append(nodes[f.Replicas[0]].queue, i)
			continue
		}
		if f.Home != "" {
			home, known := nodes[f.Home]
			if !known {
				return nil, stats, fmt.Errorf("fleet: fragment %d: unknown home node %q", f.Index, f.Home)
			}
			home.queue = append(home.queue, i)
			continue
		}
		owner, ok := c.ring.Owner(f.Key)
		if !ok {
			return nil, stats, fmt.Errorf("fleet: %w", ErrNoNodes)
		}
		nodes[owner].queue = append(nodes[owner].queue, i)
	}

	var (
		done       = make(map[int]bool, len(frags)) // by slice position
		out        = make([]FragmentResult, 0, len(frags))
		inFlight   = make(map[attemptKey]time.Time)
		fragLive   = make([]int, len(frags)) // in-flight attempts per fragment
		fragTried  = make([]int, len(frags)) // attempts launched per fragment
		fragShed   = make([]int, len(frags)) // queue-full requeues per fragment
		durations  []time.Duration           // completed-attempt times, for the straggler median
		speculated = make([]bool, len(frags))
		badReplica = make(map[attemptKey]bool) // replica copies that served corrupt data
		parked     = make(map[int]bool)        // fragments waiting for a holder to recover
		healSet    = make(map[string]bool)     // object keys to repair after the gather
		downNodes  = make(map[string]*probeState)
	)
	probeResults := make(chan probeOutcome, len(c.nodes))

	queuedSomewhere := func(fi int) bool {
		for _, nr := range nodes {
			for _, q := range nr.queue {
				if q == fi {
					return true
				}
			}
		}
		return false
	}

	// canRun reports whether node may execute fragment fi: any node for a
	// classic fragment, only a replica holder whose copy has not proven
	// corrupt for a replicated one.
	canRun := func(fi int, node string) bool {
		f := &frags[fi]
		if len(f.Replicas) == 0 {
			return true
		}
		if badReplica[attemptKey{fi, node}] {
			return false
		}
		for _, rn := range f.Replicas {
			if rn == node {
				return true
			}
		}
		return false
	}

	// rePlace moves fragment fi to the best eligible node other than
	// exclude. A replicated fragment walks its own holder list; when every
	// holder is either corrupt or down — but at least one is merely down —
	// the fragment parks until a probe brings a holder back instead of
	// failing the job.
	rePlace := func(fi int, exclude string) error {
		f := &frags[fi]
		if len(f.Replicas) > 0 {
			downHolder := false
			for _, name := range f.Replicas {
				if badReplica[attemptKey{fi, name}] {
					continue
				}
				nr := nodes[name]
				if !nr.healthy {
					downHolder = true
					continue
				}
				if name == exclude {
					continue
				}
				nr.queue = append(nr.queue, fi)
				stats.MovedFragments++
				c.cfg.Metrics.Counter(metrics.FleetMoves).Inc()
				return nil
			}
			if downHolder {
				parked[fi] = true
				return nil
			}
			return fmt.Errorf("fleet: fragment %d: every replica is corrupt or lost: %w", f.Index, ErrNoNodes)
		}
		for _, name := range c.ring.Rank(f.Key) {
			nr := nodes[name]
			if name == exclude || !nr.healthy {
				continue
			}
			nr.queue = append(nr.queue, fi)
			stats.MovedFragments++
			c.cfg.Metrics.Counter(metrics.FleetMoves).Inc()
			return nil
		}
		return fmt.Errorf("fleet: fragment %d: %w", f.Index, ErrNoNodes)
	}

	// markDown fails a node and re-places its queued work. Its in-flight
	// attempts re-place individually as their errors arrive. A node whose
	// session can be probed gets a recovery schedule instead of a permanent
	// mark.
	markDown := func(nr *nodeRun) error {
		if !nr.healthy {
			return nil
		}
		nr.healthy = false
		stats.NodeFailures++
		c.cfg.Metrics.Counter(metrics.FleetNodeFailures).Inc()
		if p, ok := nr.node.Session.(Prober); ok {
			downNodes[nr.node.Name] = &probeState{
				prober:    p,
				nextProbe: time.Now().Add(jitter(c.cfg.ProbeInterval)),
				backoff:   c.cfg.ProbeInterval,
			}
		}
		queue := nr.queue
		nr.queue = nil
		for _, fi := range queue {
			// A fragment with a live attempt elsewhere (speculation) or a
			// seat in another queue re-places itself if that path fails.
			if done[fi] || fragLive[fi] > 0 || queuedSomewhere(fi) {
				continue
			}
			if len(frags[fi].Replicas) > 0 {
				healSet[frags[fi].Key] = true
			}
			if err := rePlace(fi, nr.node.Name); err != nil {
				return err
			}
		}
		return nil
	}

	// probeScan launches due liveness probes at marked-down nodes.
	probeScan := func() {
		now := time.Now()
		for name, ps := range downNodes {
			if ps.inFlight || now.Before(ps.nextProbe) {
				continue
			}
			ps.inFlight = true
			stats.Probes++
			c.cfg.Metrics.Counter(metrics.FleetProbes).Inc()
			wg.Add(1)
			go func(name string, p Prober) {
				defer wg.Done()
				pctx, pcancel := context.WithTimeout(ctx, c.cfg.ProbeInterval)
				err := p.Probe(pctx)
				pcancel()
				select {
				case probeResults <- probeOutcome{node: name, err: err}:
				case <-ctx.Done():
				}
			}(name, ps.prober)
		}
	}

	// handleProbe applies one probe outcome: failures back off, a first
	// success starts probation, and a success that confirms the probation
	// window marks the node healthy and unparks waiting fragments.
	handleProbe := func(po probeOutcome) error {
		ps := downNodes[po.node]
		if ps == nil {
			return nil
		}
		ps.inFlight = false
		now := time.Now()
		if po.err != nil {
			ps.firstOK = time.Time{} // a flap resets probation
			ps.backoff = min(ps.backoff*2, c.cfg.ProbeBackoffMax)
			ps.nextProbe = now.Add(jitter(ps.backoff))
			return nil
		}
		if ps.firstOK.IsZero() {
			ps.firstOK = now
			ps.nextProbe = now.Add(c.cfg.ProbationWindow)
			return nil
		}
		delete(downNodes, po.node)
		nodes[po.node].healthy = true
		stats.NodeRecoveries++
		c.cfg.Metrics.Counter(metrics.FleetNodeRecoveries).Inc()
		waiting := make([]int, 0, len(parked))
		for fi := range parked {
			waiting = append(waiting, fi)
		}
		sort.Ints(waiting)
		for _, fi := range waiting {
			delete(parked, fi)
			if done[fi] || fragLive[fi] > 0 || queuedSomewhere(fi) {
				continue
			}
			if err := rePlace(fi, ""); err != nil {
				return err
			}
		}
		return nil
	}

	// launch hands fragment fi to nr's workers. Callers launch only below
	// the node's window, and the work channel holds a window's worth of
	// jobs, so the send never waits — not even for workers that have not
	// started yet, which would otherwise hold a job's first dispatch until
	// the next scan tick.
	launch := func(nr *nodeRun, fi int, spec bool) {
		select {
		case nr.work <- attemptJob{frag: fi, module: module, reqID: reqIDs[fi], params: frags[fi].Params, spec: spec}:
		case <-ctx.Done(): // Execute is returning; nothing below is read again
		}
		nr.inflight++
		fragLive[fi]++
		fragTried[fi]++
		inFlight[attemptKey{fi, nr.node.Name}] = time.Now()
		stats.Dispatches++
		c.cfg.Metrics.Counter(metrics.FleetDispatches).Inc()
	}

	// dispatch fills every healthy node's window from its queue, then lets
	// nodes with spare capacity and empty queues steal from the tail of
	// the longest queue — dynamic balance on top of static placement.
	dispatch := func() {
		for _, name := range order {
			nr := nodes[name]
			for nr.healthy && nr.inflight < c.cfg.Window && len(nr.queue) > 0 {
				fi := nr.queue[0]
				nr.queue = nr.queue[1:]
				if !done[fi] {
					launch(nr, fi, false)
				}
			}
		}
		for _, name := range order {
			nr := nodes[name]
			for nr.healthy && nr.inflight < c.cfg.Window && len(nr.queue) == 0 {
				// Steal from the longest queue holding a fragment this node
				// may run (replicated fragments only move between holders).
				var busiest *nodeRun
				bi := -1
				for _, on := range order {
					o := nodes[on]
					if o == nr || len(o.queue) == 0 || (busiest != nil && len(o.queue) <= len(busiest.queue)) {
						continue
					}
					for k := len(o.queue) - 1; k >= 0; k-- {
						if fi := o.queue[k]; done[fi] || canRun(fi, nr.node.Name) {
							busiest, bi = o, k
							break
						}
					}
				}
				if busiest == nil {
					break
				}
				fi := busiest.queue[bi]
				busiest.queue = append(busiest.queue[:bi], busiest.queue[bi+1:]...)
				if done[fi] {
					continue
				}
				launch(nr, fi, false)
				stats.QueueSteals++
				c.cfg.Metrics.Counter(metrics.FleetQueueSteals).Inc()
			}
		}
	}

	// speculate re-executes attempts that have run well past the median.
	// Until an attempt of this job has completed there is no median, and
	// an attempt is not a straggler just for being older than the floor:
	// a job of a few long attempts (one bundle per node) would otherwise
	// be re-executed whole at the first tick past MinStragglerAge.
	speculate := func() {
		if len(inFlight) == 0 || len(durations) == 0 {
			return
		}
		ds := make([]time.Duration, len(durations))
		copy(ds, durations)
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		threshold := max(c.cfg.MinStragglerAge, time.Duration(float64(ds[len(ds)/2])*c.cfg.StragglerFactor))
		for key, started := range inFlight {
			fi := key.frag
			if done[fi] || fragLive[fi] >= c.cfg.MaxAttempts || time.Since(started) < threshold {
				continue
			}
			// Fastest idle node: healthy, spare window, not already
			// running this fragment, least loaded.
			var idle *nodeRun
			for _, name := range order {
				nr := nodes[name]
				if !nr.healthy || nr.inflight >= c.cfg.Window || !canRun(fi, name) {
					continue
				}
				if _, running := inFlight[attemptKey{fi, name}]; running {
					continue
				}
				if idle == nil || nr.inflight < idle.inflight {
					idle = nr
				}
			}
			if idle == nil {
				// No eligible capacity for this fragment; others may still
				// have an idle holder.
				continue
			}
			launch(idle, fi, true)
			stats.Speculations++
			c.cfg.Metrics.Counter(metrics.FleetSpeculations).Inc()
		}
	}

	handle := func(r attemptResult) error {
		nr := nodes[r.node]
		nr.inflight--
		delete(inFlight, attemptKey{r.frag, r.node})
		fragLive[r.frag]--
		if r.err == nil {
			durations = append(durations, r.elapsed)
			if done[r.frag] {
				stats.DupResults++
				c.cfg.Metrics.Counter(metrics.FleetDupResults).Inc()
				return nil
			}
			done[r.frag] = true
			if r.spec {
				speculated[r.frag] = true
			}
			stats.PerNode[r.node]++
			fr := FragmentResult{
				Index:      frags[r.frag].Index,
				Node:       r.node,
				Payload:    r.payload,
				Attempts:   fragTried[r.frag],
				Speculated: r.spec,
				Elapsed:    r.elapsed,
			}
			out = append(out, fr)
			if onWin != nil {
				return onWin(fr)
			}
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if len(frags[r.frag].Replicas) > 0 && smartfam.IsCorruptBlobMessage(r.err.Error()) {
			// The node is fine; its copy of this object is not. Poison the
			// (fragment, node) pair, remember the object for the post-job
			// heal, and fall back to the next-ranked replica. Matched on the
			// message so the sentinel survives the wire (ModuleError) and
			// in-process module errors alike.
			stats.CorruptReplicas++
			c.cfg.Metrics.Counter(metrics.FleetCorruptReplicas).Inc()
			badReplica[attemptKey{r.frag, r.node}] = true
			healSet[frags[r.frag].Key] = true
			if done[r.frag] || fragLive[r.frag] > 0 || queuedSomewhere(r.frag) {
				return nil
			}
			stats.ReplicaFallbacks++
			c.cfg.Metrics.Counter(metrics.FleetReplicaFallbacks).Inc()
			return rePlace(r.frag, r.node)
		}
		var merr *smartfam.ModuleError
		if errors.As(r.err, &merr) {
			if sched.IsQueueFullMessage(merr.Msg) {
				// The node's scheduler shed the attempt — backpressure, not
				// failure. Requeue on the same node up to a cap, then push
				// the fragment to its next-ranked node.
				stats.QueueFullRequeues++
				c.cfg.Metrics.Counter(metrics.FleetQueueFullRequeues).Inc()
				fragShed[r.frag]++
				if done[r.frag] || fragLive[r.frag] > 0 || queuedSomewhere(r.frag) {
					return nil
				}
				if fragShed[r.frag] > queueFullRequeueCap*len(c.nodes) {
					return fmt.Errorf("fleet: fragment %d: %w", frags[r.frag].Index, sched.ErrQueueFull)
				}
				if fragShed[r.frag]%queueFullRequeueCap == 0 {
					// No other node may take it: the fleet is busy, not down.
					if rePlace(r.frag, r.node) != nil {
						return fmt.Errorf("fleet: fragment %d: %w", frags[r.frag].Index, sched.ErrQueueFull)
					}
					return nil
				}
				nr.queue = append(nr.queue, r.frag)
				return nil
			}
			// Application error: deterministic, no amount of re-placement
			// helps. Fail the job.
			return fmt.Errorf("fleet: fragment %d on %s: %w", frags[r.frag].Index, r.node, r.err)
		}
		// Transport error, attempt timeout, or unknown module: the node is
		// unusable. Fail it over and re-place the orphaned fragment.
		if err := markDown(nr); err != nil {
			return err
		}
		if done[r.frag] || fragLive[r.frag] > 0 || queuedSomewhere(r.frag) {
			return nil
		}
		return rePlace(r.frag, r.node)
	}

	ticker := time.NewTicker(c.cfg.ScanInterval)
	defer ticker.Stop()
	for len(out) < len(frags) {
		dispatch()
		// Stalled with nothing in flight and no probe that could still
		// revive a node means the outstanding work is unreachable: every
		// node down, or every holder of a parked fragment gone for good.
		if len(inFlight) == 0 && len(downNodes) == 0 {
			healthy := 0
			for _, nr := range nodes {
				if nr.healthy {
					healthy++
				}
			}
			queued := false
			for _, nr := range nodes {
				if len(nr.queue) > 0 {
					queued = true
					break
				}
			}
			if healthy == 0 || (!queued && len(parked) > 0) {
				return nil, stats, fmt.Errorf("fleet: %d fragments outstanding: %w", len(frags)-len(out), ErrNoNodes)
			}
		}
		select {
		case <-ctx.Done():
			return nil, stats, ctx.Err()
		case r := <-results:
			if err := handle(r); err != nil {
				return nil, stats, err
			}
		case po := <-probeResults:
			if err := handleProbe(po); err != nil {
				return nil, stats, err
			}
		case <-ticker.C:
			speculate()
			probeScan()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })

	// Heal-on-read: every replicated object that served a corrupt copy or
	// lost a holder during the job goes back to full replication now, while
	// the coordinator still knows exactly which objects suffered.
	if c.cfg.Store != nil && len(healSet) > 0 {
		heal := make([]string, 0, len(healSet))
		for key := range healSet {
			heal = append(heal, key)
		}
		sort.Strings(heal)
		for _, key := range heal {
			res, err := c.cfg.Store.Repair(ctx, key)
			if err != nil {
				stats.HealErrors++
				continue
			}
			stats.ReadRepairs += res.RepairedCorrupt
			stats.ReReplicated += res.ReReplicated
			if res.RepairedCorrupt > 0 {
				c.cfg.Metrics.Counter(metrics.FleetReadRepairs).Add(int64(res.RepairedCorrupt))
			}
		}
	}
	return out, stats, nil
}

// worker serves one slot of a node's window: invoke, report, repeat.
func (c *Coordinator) worker(ctx context.Context, module string, nr *nodeRun, results chan<- attemptResult) {
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-nr.work:
			actx, acancel := ctx, context.CancelFunc(func() {})
			if c.cfg.AttemptTimeout > 0 {
				actx, acancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
			}
			start := time.Now()
			payload, err := nr.node.Session.InvokeID(actx, job.module, job.reqID, job.params)
			acancel()
			select {
			case results <- attemptResult{frag: job.frag, node: nr.node.Name, payload: payload, err: err, elapsed: time.Since(start), spec: job.spec}:
			case <-ctx.Done():
				return
			}
		}
	}
}
