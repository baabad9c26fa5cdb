// Chaos integration test for the self-healing replicated storage tier: a
// word count over sealed R=2 fragment objects survives one SD daemon being
// killed mid-job WHILE another node's replica of a victim-held object
// carries an at-rest bit flip (injected through faultfs during PutFile).
// The job can only finish if the killed node is probed back to health —
// its copy is the last intact one — so byte-identical completion proves
// corrupt-replica fallback, fragment parking, probe-based mark-up, and
// heal-on-read all worked. A scrub afterwards restores full replication
// and a second scrub reports a quiet fleet.
// Run directly with: go test -run TestChaosHeal -v .
package mcsd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/faultfs"
	"mcsd/internal/fleet"
	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

func TestChaosHealKillAndCorruptReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	assertGoroutineBudget(t, 3)
	corpus := workloads.GenerateTextBytes(60_000, 97)

	// Single-node reference: the bytes every healed fleet run must match.
	refDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(refDir, "corpus.txt"), corpus, 0o644); err != nil {
		t.Fatal(err)
	}
	refMod := core.WordCountModule(core.ModuleConfig{Store: core.DirStore(refDir), Workers: 1})
	refParams, err := json.Marshal(core.WordCountParams{DataFile: "corpus.txt", EmitPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	refRaw, err := refMod.Run(context.Background(), refParams)
	if err != nil {
		t.Fatal(err)
	}
	var refOut core.WordCountOutput
	if err := core.Decode(refRaw, &refOut); err != nil {
		t.Fatal(err)
	}
	want := fleet.CanonicalWordCount(&refOut)

	// Three nodes. The host writes replicas through faultfs layers (inert
	// until armed); daemons and modules use plain handles on the same dirs.
	names := []string{"sd-a", "sd-b", "sd-c"}
	const victim = "sd-a"
	shareDirs := make(map[string]string, len(names))
	hostFS := make(map[string]*faultfs.FS, len(names))
	storeShares := make(map[string]smartfam.FS, len(names))
	for _, name := range names {
		dir := t.TempDir()
		shareDirs[name] = dir
		hostFS[name] = faultfs.New(smartfam.DirFS(dir))
		storeShares[name] = hostFS[name]
	}
	store := fleet.NewStore(storeShares, 2, metrics.NewRegistry())

	// Placement is deterministic, so the sabotage targets are known before
	// any byte is written. Object A: victim is the home and some other node
	// Z holds the only other copy — Z's copy gets the at-rest bit flip, so
	// mid-job (victim dead, Z corrupt) the fragment has NO healthy intact
	// holder and completion requires the victim's rejoin. Object B: the
	// victim holds no copy and its home X (!= Z, to keep one faultfs match
	// filter per node) gets flipped — exercising live corrupt-fallback on a
	// healthy node.
	probeObj := func(check func(reps []string) bool) (string, []string) {
		for i := 0; i < 4096; i++ {
			name := fleet.ObjectName("corpus", i)
			if reps := store.Replicas(name); check(reps) {
				return name, reps
			}
		}
		t.Fatal("no object with the wanted placement in 4096 probes")
		return "", nil
	}
	objA, repsA := probeObj(func(reps []string) bool { return reps[0] == victim })
	zNode := repsA[1]
	objB, repsB := probeObj(func(reps []string) bool {
		return reps[0] != victim && reps[1] != victim && reps[0] != zNode
	})
	xNode := repsB[0]

	// Arm exactly one at-rest append corruption per sabotaged node, filtered
	// to the target object, then stage the corpus. faultfs flips one payload
	// bit while reporting success — the CRC32 trailer no longer matches.
	hostFS[zNode].CorruptMatch(objA)
	hostFS[zNode].CorruptNext(faultfs.OpAppend, 1)
	hostFS[xNode].CorruptMatch(objB)
	hostFS[xNode].CorruptNext(faultfs.OpAppend, 1)
	set, err := store.PutFile(context.Background(), "corpus", corpus, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if hostFS[zNode].Corrupted() != 1 || hostFS[xNode].Corrupted() != 1 {
		t.Fatalf("armed corruptions did not land: z=%d x=%d",
			hostFS[zNode].Corrupted(), hostFS[xNode].Corrupted())
	}
	for _, target := range []struct{ node, obj string }{{zNode, objA}, {xNode, objB}} {
		raw, err := smartfam.ReadFrom(storeShares[target.node], target.obj, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := smartfam.VerifyBlob(raw); err == nil {
			t.Fatalf("copy of %s on %s still verifies; corruption missed", target.obj, target.node)
		}
	}

	// Daemons with heartbeats; the victim's module parks every invocation
	// of its first life so the kill provably lands mid-fragment.
	const heartbeatEvery = 25 * time.Millisecond
	started := make(chan struct{})
	var startedOnce sync.Once
	newDaemon := func(name string, blockFirstLife bool) (*smartfam.Daemon, func()) {
		share := smartfam.DirFS(shareDirs[name])
		mod := smartfam.Module(core.WordCountModule(core.ModuleConfig{
			Store: core.FSStore(smartfam.DirFS(shareDirs[name])), Workers: 1,
		}))
		if blockFirstLife {
			inner := mod
			mod = smartfam.ModuleFunc{ModuleName: inner.Name(), Fn: func(ctx context.Context, p []byte) ([]byte, error) {
				startedOnce.Do(func() { close(started) })
				<-ctx.Done() // park until the daemon dies
				return nil, ctx.Err()
			}}
		}
		reg := smartfam.NewRegistry(share)
		if err := reg.Register(mod); err != nil {
			t.Fatal(err)
		}
		d := smartfam.NewDaemon(share, reg,
			smartfam.WithPollInterval(time.Millisecond),
			smartfam.WithHeartbeat(heartbeatEvery),
			smartfam.WithWorkers(2))
		// Registered after the share's TempDir: the daemon has stopped
		// writing heartbeats into it before the directory is removed.
		stop := startChaosDaemon(d)
		t.Cleanup(stop)
		return d, stop
	}
	nodes := make([]fleet.Node, len(names))
	var victimKill func()
	for i, name := range names {
		_, stop := newDaemon(name, name == victim)
		if name == victim {
			victimKill = stop
		}
		client := smartfam.NewClient(smartfam.DirFS(shareDirs[name]), time.Millisecond)
		client.SetProbeStaleAfter(150 * time.Millisecond)
		nodes[i] = fleet.Node{Name: name, Session: client}
	}

	coord := fleet.NewCoordinator(nodes, fleet.Config{
		AttemptTimeout:  500 * time.Millisecond,
		MinStragglerAge: time.Hour, // isolate failover + heal from speculation
		ProbeInterval:   50 * time.Millisecond,
		ProbationWindow: 50 * time.Millisecond,
		ScanInterval:    5 * time.Millisecond,
		Store:           store,
	})
	type outcome struct {
		res *fleet.WordCountResult
		err error
	}
	done := make(chan outcome, 1)
	jobCtx, jobCancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer jobCancel()
	go func() {
		res, err := coord.WordCountSealed(jobCtx, fleet.SealedWordCountJob{Set: set})
		done <- outcome{res, err}
	}()

	// Kill the victim only once it is provably mid-fragment, then restart
	// it after its heartbeat has gone stale and its in-flight attempts have
	// timed out — the probe path, not a lucky response, must revive it.
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the victim to start a fragment")
	}
	victimKill()
	time.Sleep(1 * time.Second)
	newDaemon(victim, false)

	var out outcome
	select {
	case out = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("fleet job did not finish after kill + corrupt replica")
	}
	if out.err != nil {
		t.Fatalf("sealed word count failed: %v", out.err)
	}
	if got := fleet.CanonicalWordCount(&out.res.Output); !bytes.Equal(got, want) {
		t.Fatal("merged output differs from the single-node reference after kill + corruption")
	}
	stats := out.res.Stats
	if stats.NodeFailures < 1 {
		t.Errorf("NodeFailures = %d, want >= 1 (the killed daemon)", stats.NodeFailures)
	}
	if stats.CorruptReplicas < 1 {
		t.Errorf("CorruptReplicas = %d, want >= 1 (the bit-flipped copies)", stats.CorruptReplicas)
	}
	if stats.NodeRecoveries < 1 {
		t.Errorf("NodeRecoveries = %d, want >= 1 (the victim's probed rejoin)", stats.NodeRecoveries)
	}
	if stats.PerNode[victim] < 1 {
		t.Errorf("recovered node served no fragments: %v", stats.PerNode)
	}
	if stats.ReadRepairs < 1 {
		t.Errorf("ReadRepairs = %d, want >= 1 (heal-on-read after the gather)", stats.ReadRepairs)
	}
	// Exactly once per fragment.
	seen := make(map[int]bool)
	for _, fr := range out.res.Fragments {
		if seen[fr.Index] {
			t.Fatalf("fragment %d returned twice", fr.Index)
		}
		seen[fr.Index] = true
	}

	// Fresh damage after the job: scrub pass 1 must restore full
	// replication, pass 2 must report a quiet fleet — including the objects
	// sabotaged before the job, which heal-on-read already fixed.
	objC := set.Objects[len(set.Objects)-1]
	cNode := store.Replicas(objC)[1]
	rawC, err := smartfam.ReadFrom(storeShares[cNode], objC, 0)
	if err != nil {
		t.Fatal(err)
	}
	rawC[len(rawC)/2] ^= 0x01
	if err := storeShares[cNode].Create(objC); err != nil {
		t.Fatal(err)
	}
	if err := storeShares[cNode].Append(objC, rawC); err != nil {
		t.Fatal(err)
	}
	scrubCtx, scrubCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer scrubCancel()
	rep1, err := store.Scrub(scrubCtx, fleet.ScrubConfig{RateBytesPerSec: 64 << 20})
	if err != nil {
		t.Fatalf("scrub pass 1: %v", err)
	}
	if rep1.RepairedReplicas+rep1.ReReplicated < 1 {
		t.Fatalf("scrub pass 1 repaired nothing: %+v", rep1)
	}
	if len(rep1.Errors) != 0 || len(rep1.UnreachableNodes) != 0 {
		t.Fatalf("scrub pass 1 hit errors: %+v", rep1)
	}
	rep2, err := store.Scrub(scrubCtx, fleet.ScrubConfig{RateBytesPerSec: 64 << 20})
	if err != nil {
		t.Fatalf("scrub pass 2: %v", err)
	}
	if rep2.RepairedReplicas != 0 || rep2.ReReplicated != 0 || rep2.CorruptReplicas != 0 {
		t.Fatalf("scrub pass 2 still found damage: %+v", rep2)
	}
	if rep2.Objects != len(set.Objects) {
		t.Fatalf("scrub pass 2 saw %d objects, want %d", rep2.Objects, len(set.Objects))
	}
}
