// Repository-level integration tests: the full McSD stack — file-service
// export, smartFAM daemon, preloaded modules, host runtime — wired over
// real TCP, exercising the same paths the mcsdd/mcsdctl binaries use.
package mcsd_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/mapreduce"
	"mcsd/internal/netsim"
	"mcsd/internal/nfs"
	"mcsd/internal/partition"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// sdNode is one in-process smart-storage node reachable over TCP.
type sdNode struct {
	dir  string
	addr string
	stop func()
}

// startSDNode boots an mcsdd-equivalent: export + daemon + modules.
func startSDNode(t *testing.T, workers int) *sdNode {
	t.Helper()
	dir := t.TempDir()
	share := smartfam.DirFS(dir)
	reg := smartfam.NewRegistry(share)
	for _, m := range core.StandardModules(core.ModuleConfig{Store: core.DirStore(dir), Workers: workers}) {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	daemon := smartfam.NewDaemon(share, reg, smartfam.WithPollInterval(time.Millisecond), smartfam.WithWorkers(workers))
	go daemon.Run(ctx) //nolint:errcheck

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := nfs.NewServer(dir)
	go srv.Serve(ln) //nolint:errcheck

	node := &sdNode{dir: dir, addr: ln.Addr().String()}
	node.stop = func() {
		cancel()
		ln.Close()
		srv.Shutdown()
	}
	t.Cleanup(node.stop)
	return node
}

func TestIntegrationWordCountOverTCP(t *testing.T) {
	node := startSDNode(t, 2)

	mount, err := nfs.Dial(node.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mount.Close()

	// Stage the corpus over the wire, exactly like `mcsdctl put`.
	corpus := workloads.GenerateTextBytes(2<<20, 17)
	if err := mount.WriteFile("data/corpus.txt", corpus); err != nil {
		t.Fatal(err)
	}

	rt := core.New(core.WithPollInterval(time.Millisecond))
	rt.AttachSD("sd0", mount)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	res, err := rt.Invoke(ctx, core.ModuleWordCount, core.WordCountParams{
		DataFile: "data/corpus.txt", PartitionBytes: 256 << 10, TopN: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SD != "sd0" {
		t.Fatalf("not offloaded: %+v", res)
	}
	var out core.WordCountOutput
	if err := core.Decode(res.Payload, &out); err != nil {
		t.Fatal(err)
	}

	want := workloads.WordCountSeq(corpus)
	if out.UniqueWords != len(want) {
		t.Fatalf("UniqueWords = %d, want %d", out.UniqueWords, len(want))
	}
	top := workloads.TopWords(want, 1)[0]
	if out.Top[0].Word != top.Key || out.Top[0].Count != top.Value {
		t.Fatalf("Top[0] = %+v, want %s:%d", out.Top[0], top.Key, top.Value)
	}
	if out.Fragments < 4 {
		t.Fatalf("Fragments = %d, want out-of-core execution", out.Fragments)
	}
}

func TestIntegrationStringMatchOverThrottledLink(t *testing.T) {
	node := startSDNode(t, 2)

	// Mount through a modelled fast-Ethernet link: correctness must be
	// unaffected by pacing.
	link := netsim.NewLink(netsim.Profile{Name: "test", BandwidthBps: 20e6, Latency: 50 * time.Microsecond})
	mount, err := nfs.DialThrottled(t.Context(), node.addr, 5*time.Second, link)
	if err != nil {
		t.Fatal(err)
	}
	defer mount.Close()

	keys := workloads.GenerateKeys(5, 23)
	enc := workloads.GenerateEncryptBytes(1<<20, 29, keys, 0.1)
	if err := mount.WriteFile("data/enc.txt", enc); err != nil {
		t.Fatal(err)
	}
	if err := mount.WriteFile("data/keys.txt", []byte(strings.Join(keys, "\n")+"\n")); err != nil {
		t.Fatal(err)
	}

	rt := core.New(core.WithPollInterval(time.Millisecond))
	rt.AttachSD("sd0", mount)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	res, err := rt.Invoke(ctx, core.ModuleStringMatch, core.StringMatchParams{
		DataFile: "data/enc.txt", KeysFile: "data/keys.txt", PartitionBytes: 128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out core.StringMatchOutput
	if err := core.Decode(res.Payload, &out); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(workloads.StringMatchSeq(enc, keys))); out.TotalHits != want {
		t.Fatalf("TotalHits = %d, want %d", out.TotalHits, want)
	}
}

func TestIntegrationOffloadMatchesHostSideRead(t *testing.T) {
	// The equivalence behind Fig. 9: the offloaded result must be
	// byte-identical to the host pulling the data over the share and
	// computing locally.
	node := startSDNode(t, 2)
	mount, err := nfs.Dial(node.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mount.Close()

	corpus := workloads.GenerateTextBytes(1<<20, 31)
	if err := mount.WriteFile("c.txt", corpus); err != nil {
		t.Fatal(err)
	}

	rt := core.New(core.WithPollInterval(time.Millisecond))
	rt.AttachSD("sd0", mount)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := rt.Invoke(ctx, core.ModuleWordCount, core.WordCountParams{
		DataFile: "c.txt", PartitionBytes: 128 << 10, TopN: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	var offloaded core.WordCountOutput
	if err := core.Decode(res.Payload, &offloaded); err != nil {
		t.Fatal(err)
	}

	// Host-only path: stream the same file over NFS into the local engine.
	reader, err := mount.OpenReader("c.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	hostRes, err := partition.Run(ctx, mapreduce.Config{Workers: 2},
		workloads.WordCountSpec(), bufio.NewReader(reader),
		partition.Options{FragmentSize: 128 << 10}, workloads.WordCountMerge)
	if err != nil {
		t.Fatal(err)
	}
	if offloaded.UniqueWords != len(hostRes.Pairs) {
		t.Fatalf("offloaded %d unique words, host-side %d", offloaded.UniqueWords, len(hostRes.Pairs))
	}
	var hostTotal int64
	for _, p := range hostRes.Pairs {
		hostTotal += int64(p.Value)
	}
	if offloaded.TotalWords != hostTotal {
		t.Fatalf("offloaded %d words, host-side %d", offloaded.TotalWords, hostTotal)
	}
}

func TestIntegrationFailoverBetweenRealNodes(t *testing.T) {
	nodeA := startSDNode(t, 1)
	nodeB := startSDNode(t, 1)

	mountA, err := nfs.Dial(nodeA.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mountA.Close()
	mountB, err := nfs.Dial(nodeB.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mountB.Close()

	// Both nodes hold the same small corpus.
	corpus := []byte("alpha beta alpha gamma alpha ")
	for _, m := range []*nfs.Client{mountA, mountB} {
		if err := m.WriteFile("c.txt", corpus); err != nil {
			t.Fatal(err)
		}
	}

	rt := core.New(core.WithPollInterval(time.Millisecond), core.WithAttemptTimeout(2*time.Second))
	rt.AttachSD("sdA", mountA)
	rt.AttachSD("sdB", mountB)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	params := core.WordCountParams{DataFile: "c.txt", TopN: 1}

	// Healthy run first.
	if _, err := rt.Invoke(ctx, core.ModuleWordCount, params); err != nil {
		t.Fatal(err)
	}

	// Kill node A entirely (daemon + export). The runtime must fail over.
	nodeA.stop()
	res, err := rt.Invoke(ctx, core.ModuleWordCount, params)
	if err != nil {
		t.Fatalf("failover run failed: %v", err)
	}
	if res.SD != "sdB" {
		t.Fatalf("served by %q, want sdB after node A died", res.SD)
	}
	var out core.WordCountOutput
	if err := core.Decode(res.Payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.Top[0].Word != "alpha" || out.Top[0].Count != 3 {
		t.Fatalf("failover result wrong: %+v", out.Top)
	}
}

func TestIntegrationSoakConcurrentOffloads(t *testing.T) {
	// Many concurrent jobs from several host runtimes against two SD
	// nodes: every result must be exactly right, every job balanced
	// across live nodes.
	if testing.Short() {
		t.Skip("soak test")
	}
	nodeA := startSDNode(t, 2)
	nodeB := startSDNode(t, 2)

	// Distinct corpora per node so results prove which node computed.
	corpora := make(map[string][]byte)
	for i, n := range []*sdNode{nodeA, nodeB} {
		m, err := nfs.Dial(n.addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		data := workloads.GenerateTextBytes(200_000, int64(70+i))
		if err := m.WriteFile("c.txt", data); err != nil {
			t.Fatal(err)
		}
		corpora[n.addr] = data
	}

	mountA, err := nfs.Dial(nodeA.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mountA.Close()
	mountB, err := nfs.Dial(nodeB.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mountB.Close()

	rt := core.New(core.WithPollInterval(time.Millisecond))
	rt.AttachSD(nodeA.addr, mountA)
	rt.AttachSD(nodeB.addr, mountB)

	wantByAddr := map[string]int{}
	for addr, data := range corpora {
		wantByAddr[addr] = len(workloads.WordCountSeq(data))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const jobs = 24
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	served := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := rt.Invoke(ctx, core.ModuleWordCount, core.WordCountParams{
				DataFile: "c.txt", PartitionBytes: 32 << 10,
			})
			if err != nil {
				errs[i] = err
				return
			}
			var out core.WordCountOutput
			if err := core.Decode(res.Payload, &out); err != nil {
				errs[i] = err
				return
			}
			if want := wantByAddr[res.SD]; out.UniqueWords != want {
				errs[i] = fmt.Errorf("job %d on %s: %d unique words, want %d",
					i, res.SD, out.UniqueWords, want)
				return
			}
			served[i] = res.SD
		}(i)
	}
	wg.Wait()
	counts := map[string]int{}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		counts[served[i]]++
	}
	if counts[nodeA.addr] == 0 || counts[nodeB.addr] == 0 {
		t.Fatalf("load not balanced: %v", counts)
	}
}

func TestIntegrationDataGenFilesRoundTrip(t *testing.T) {
	// datagen-equivalent flow: generate to disk, stage, offload.
	node := startSDNode(t, 2)
	local := filepath.Join(t.TempDir(), "gen.txt")
	f, err := os.Create(local)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.GenerateText(f, 300_000, 47); err != nil {
		t.Fatal(err)
	}
	f.Close()

	mount, err := nfs.Dial(node.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mount.Close()
	data, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	if err := mount.WriteFile("gen.txt", data); err != nil {
		t.Fatal(err)
	}
	back, err := mount.ReadFile("gen.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("staged file corrupted")
	}
}
