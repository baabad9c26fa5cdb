package mcsd_test

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries compiles the three CLI tools once per test run.
func buildBinaries(t *testing.T) (mcsdd, mcsdctl, datagen string) {
	t.Helper()
	if testing.Short() {
		t.Skip("building binaries is slow")
	}
	dir := t.TempDir()
	for _, tool := range []string{"mcsdd", "mcsdctl", "datagen"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return filepath.Join(dir, "mcsdd"), filepath.Join(dir, "mcsdctl"), filepath.Join(dir, "datagen")
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestCLIEndToEnd(t *testing.T) {
	mcsdd, mcsdctl, datagen := buildBinaries(t)
	exportDir := t.TempDir()
	addr := freePort(t)

	// Start the SD node.
	daemon := exec.Command(mcsdd, "-dir", exportDir, "-listen", addr, "-workers", "2")
	var daemonLog bytes.Buffer
	daemon.Stdout, daemon.Stderr = &daemonLog, &daemonLog
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill() //nolint:errcheck
		daemon.Wait()         //nolint:errcheck
	}()

	// Wait for the export to accept connections.
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mcsdd never came up; log:\n%s", daemonLog.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	ctl := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(mcsdctl, append([]string{"-addr", addr}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("mcsdctl %v: %v\n%s\ndaemon log:\n%s", args, err, out, daemonLog.String())
		}
		return string(out)
	}

	// status: daemon live, modules listed.
	statusOut := ctl("status")
	if !strings.Contains(statusOut, "LIVE") {
		t.Fatalf("status does not report a live daemon:\n%s", statusOut)
	}
	for _, mod := range []string{"wordcount", "stringmatch", "matmul", "dbselect"} {
		if !strings.Contains(statusOut, mod) {
			t.Fatalf("status missing module %q:\n%s", mod, statusOut)
		}
	}

	// datagen -> put -> wordcount.
	corpus := filepath.Join(t.TempDir(), "corpus.txt")
	gen := exec.Command(datagen, "-kind", "text", "-size", "256K", "-seed", "7", "-out", corpus)
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("datagen: %v\n%s", err, out)
	}
	ctl("put", corpus, "data/corpus.txt")
	wcOut := ctl("wordcount", "-file", "data/corpus.txt", "-partition", "64K", "-top", "3")
	if !strings.Contains(wcOut, "total words:") || !strings.Contains(wcOut, "fragments: ") {
		t.Fatalf("wordcount output malformed:\n%s", wcOut)
	}
	if !strings.Contains(wcOut, fmt.Sprintf("offloaded to %s", addr)) {
		t.Fatalf("wordcount not marked offloaded:\n%s", wcOut)
	}

	// log: the word count's request and response, read back over the share.
	logOut := ctl("log", "wordcount")
	if !strings.Contains(logOut, "\nRES ") || !strings.Contains(logOut, " 0 corrupt lines") {
		t.Fatalf("log verb output malformed:\n%s", logOut)
	}

	// dbselect over generated sales data staged via put.
	sales := filepath.Join(t.TempDir(), "sales.csv")
	salesData := makeSalesCSV()
	if err := os.WriteFile(sales, salesData, 0o644); err != nil {
		t.Fatal(err)
	}
	ctl("put", sales, "data/sales.csv")
	dbOut := ctl("dbselect", "-file", "data/sales.csv", "-group-by", "region")
	if !strings.Contains(dbOut, "groups") || !strings.Contains(dbOut, "north") {
		t.Fatalf("dbselect output malformed:\n%s", dbOut)
	}

	// matmul (no data needed).
	mmOut := ctl("matmul", "-n", "32")
	if !strings.Contains(mmOut, "matmul 32x32") {
		t.Fatalf("matmul output malformed:\n%s", mmOut)
	}

	// kmeans over datagen-generated points.
	points := filepath.Join(t.TempDir(), "points.bin")
	genPts := exec.Command(datagen, "-kind", "points", "-count", "500",
		"-dim", "2", "-blobs", "3", "-seed", "11", "-out", points)
	if out, err := genPts.CombinedOutput(); err != nil {
		t.Fatalf("datagen points: %v\n%s", err, out)
	}
	ctl("put", points, "data/points.bin")
	kmOut := ctl("kmeans", "-file", "data/points.bin", "-dim", "2", "-k", "3", "-partition", "2K")
	if !strings.Contains(kmOut, "converged=true") {
		t.Fatalf("kmeans did not converge:\n%s", kmOut)
	}
	if strings.Count(kmOut, "centroid ") != 3 {
		t.Fatalf("kmeans centroids missing:\n%s", kmOut)
	}
}

// TestCLIExitCodesAndQueue pins the mcsdctl contract scripts rely on:
// distinct exit codes for "daemon unreachable" (2) vs "module failed"
// (3), errors on stderr with stdout clean, and the queue verb reporting
// the node's scheduler state.
func TestCLIExitCodesAndQueue(t *testing.T) {
	mcsdd, mcsdctl, _ := buildBinaries(t)

	ctl := func(addr string, args ...string) (stdout, stderr string, code int) {
		t.Helper()
		cmd := exec.Command(mcsdctl, append([]string{"-addr", addr}, args...)...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		code = 0
		if err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("mcsdctl %v did not run: %v", args, err)
			}
			code = ee.ExitCode()
		}
		return out.String(), errb.String(), code
	}

	// Nothing listens on this port: exit 2, error on stderr only.
	deadAddr := freePort(t)
	stdout, stderr, code := ctl(deadAddr, "status")
	if code != 2 {
		t.Fatalf("unreachable daemon: exit %d, want 2\nstderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("unreachable daemon wrote to stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "unreachable") {
		t.Fatalf("stderr does not say unreachable: %q", stderr)
	}

	// Live daemon for the remaining cases.
	exportDir := t.TempDir()
	addr := freePort(t)
	daemon := exec.Command(mcsdd, "-dir", exportDir, "-listen", addr, "-workers", "2")
	var daemonLog bytes.Buffer
	daemon.Stdout, daemon.Stderr = &daemonLog, &daemonLog
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill() //nolint:errcheck
		daemon.Wait()         //nolint:errcheck
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mcsdd never came up; log:\n%s", daemonLog.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Module ran and failed (missing input file): exit 3, stderr only.
	stdout, stderr, code = ctl(addr, "wordcount", "-file", "data/missing.txt")
	if code != 3 {
		t.Fatalf("module failure: exit %d, want 3\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("module failure wrote to stdout: %q", stdout)
	}
	if stderr == "" {
		t.Fatal("module failure left stderr empty")
	}

	// The queue verb reads the scheduler status the daemon publishes.
	// The published snapshot refreshes every 250ms, so poll until it
	// reflects the wordcount that just went through the scheduler.
	var queueOut string
	deadline = time.Now().Add(15 * time.Second)
	for {
		var qcode int
		queueOut, stderr, qcode = ctl(addr, "queue")
		if qcode == 0 && strings.Contains(queueOut, "1 submitted") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue verb never reflected the job: exit %d\nstdout: %s\nstderr: %s\ndaemon log:\n%s",
				qcode, queueOut, stderr, daemonLog.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, want := range []string{"queue:", "lifetime:", "pressure:", "wait:"} {
		if !strings.Contains(queueOut, want) {
			t.Fatalf("queue output missing %q:\n%s", want, queueOut)
		}
	}
}

func TestCLIBenchCSVExport(t *testing.T) {
	if testing.Short() {
		t.Skip("building binaries is slow")
	}
	binDir := t.TempDir()
	bench := filepath.Join(binDir, "mcsd-bench")
	if out, err := exec.Command("go", "build", "-o", bench, "./cmd/mcsd-bench").CombinedOutput(); err != nil {
		t.Fatalf("building mcsd-bench: %v\n%s", err, out)
	}
	csvDir := t.TempDir()
	cmd := exec.Command(bench, "-fig9", "-claims", "-csv", csvDir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mcsd-bench: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "[FAIL]") {
		t.Fatalf("claims failed:\n%s", out)
	}
	entries, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d CSV files for Fig. 9, want 3", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(csvDir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "size(MB),speedup\n") {
		t.Fatalf("CSV header wrong:\n%s", data)
	}
	if lines := strings.Count(string(data), "\n"); lines != 5 {
		t.Fatalf("CSV has %d lines, want header + 4 sizes", lines)
	}
}

func makeSalesCSV() []byte {
	var b bytes.Buffer
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "north,disk,%d,%d.50\n", i%9+1, i%40+1)
		fmt.Fprintf(&b, "south,cpu,%d,%d.25\n", i%7+1, i%30+2)
	}
	return b.Bytes()
}
