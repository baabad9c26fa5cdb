// Regression tests for the registry's lock discipline: Register does
// share I/O (log probe and create), and an earlier
// version held r.mu across those calls — so a slow share stalled Lookup,
// which sits on the daemon's per-request hot path. These tests pin the
// fix: the FS work runs outside the lock, with a pending-name reservation
// keeping concurrent duplicate Registers honest. They live in the external
// test package because faultfs wraps smartfam.FS.
package smartfam_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mcsd/internal/faultfs"
	"mcsd/internal/smartfam"
)

func registryModule(name string) smartfam.Module {
	return smartfam.ModuleFunc{ModuleName: name, Fn: nil}
}

// TestRegistryLookupNotBlockedByShareIO parks Register inside slow share
// I/O and requires Lookup (and Names) to answer immediately anyway.
func TestRegistryLookupNotBlockedByShareIO(t *testing.T) {
	ffs := faultfs.New(smartfam.DirFS(t.TempDir()))
	reg := smartfam.NewRegistry(ffs)
	if err := reg.Register(registryModule("fast")); err != nil {
		t.Fatal(err)
	}

	// Every share op now takes 300ms; Register("slow") will sit in its
	// log-file Stat/Create for ~600ms.
	const opLatency = 300 * time.Millisecond
	ffs.SetLatency(opLatency)
	regDone := make(chan error, 1)
	go func() { regDone <- reg.Register(registryModule("slow")) }()

	// Give Register time to take and release the lock and enter the share
	// I/O (the lock-held window is pure map work, microseconds).
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	if _, err := reg.Lookup("fast"); err != nil {
		t.Fatal(err)
	}
	reg.Names()
	if d := time.Since(start); d > opLatency/2 {
		t.Fatalf("Lookup+Names took %v while Register was in share I/O; the lock is being held across FS calls", d)
	}

	if err := <-regDone; err != nil {
		t.Fatalf("Register(slow): %v", err)
	}
	if _, err := reg.Lookup("slow"); err != nil {
		t.Fatalf("slow module not committed after Register returned: %v", err)
	}
}

// TestRegistryConcurrentDuplicateRegister pins the pending-name
// reservation: with Register's share I/O outside the lock, a concurrent
// duplicate must still lose the race — exactly one of N racers wins, and
// the losers get the already-registered error, not a double commit.
func TestRegistryConcurrentDuplicateRegister(t *testing.T) {
	ffs := faultfs.New(smartfam.DirFS(t.TempDir()))
	ffs.SetLatency(20 * time.Millisecond) // widen the I/O window the racers overlap in
	reg := smartfam.NewRegistry(ffs)

	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = reg.Register(registryModule("dup"))
		}(i)
	}
	wg.Wait()

	wins := 0
	for i, err := range errs {
		if err == nil {
			wins++
		} else if !strings.Contains(err.Error(), "already registered") {
			t.Fatalf("racer %d: unexpected error %v", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("%d racers won, want exactly 1", wins)
	}
	if _, err := reg.Lookup("dup"); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryFailedRegisterLeavesNoReservation pins the pending cleanup:
// a Register whose share I/O fails must release its name so a later
// attempt can succeed.
func TestRegistryFailedRegisterLeavesNoReservation(t *testing.T) {
	ffs := faultfs.New(smartfam.DirFS(t.TempDir()))
	reg := smartfam.NewRegistry(ffs)

	ffs.FailNext(faultfs.OpStat, 1)
	err := reg.Register(registryModule("m"))
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Register under fault: %v, want injected failure", err)
	}
	if _, err := reg.Lookup("m"); err == nil {
		t.Fatal("failed Register still committed the module")
	}
	if err := reg.Register(registryModule("m")); err != nil {
		t.Fatalf("retry after failed Register: %v (stale pending reservation?)", err)
	}
	if _, err := reg.Lookup("m"); err != nil {
		t.Fatal(err)
	}
}
