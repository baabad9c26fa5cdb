package lint_test

import (
	"testing"

	"mcsd/internal/lint"
	"mcsd/internal/lint/linttest"
)

func TestFSDiscipline(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "fsdiscipline"), lint.FSDiscipline,
		"mcsd/internal/smartfam", "mcsd/internal/other")
}

func TestWireWrap(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "wirewrap"), lint.WireWrap,
		"mcsd/internal/nfs", "mcsd/internal/free")
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "ctxflow"), lint.CtxFlow,
		"mcsd/internal/worker", "mcsd/cmd/tool")
}

func TestMetricKey(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "metrickey"), lint.MetricKey,
		"mcsd/internal/app")
}

func TestSimDet(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "simdet"), lint.SimDet,
		"mcsd/internal/sim", "mcsd/internal/unscoped")
}

func TestGoRoLeak(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "goroleak"), lint.GoRoLeak,
		"mcsd/internal/worker", "mcsd/cmd/tool")
}

func TestLockHold(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "lockhold"), lint.LockHold,
		"mcsd/internal/locks", "mcsd/internal/smartfam", "mcsd/internal/daemon")
}

func TestChanBound(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "chanbound"), lint.ChanBound,
		"mcsd/internal/pipe", "mcsd/cmd/tool")
}

// TestDeadExport pins the dead-surface rule over two packages: unused
// exported funcs, types, consts, vars and methods are flagged, and so is
// one referenced only from a _test.go or only by itself; a reference from
// another package counts, a method named like an interface method is
// exempt, an allow with a reason suppresses, and a package nothing imports
// is skipped.
func TestDeadExport(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "deadexport"), lint.DeadExport,
		"mcsd/internal/store", "mcsd/internal/app")
}

// TestDirectiveHygiene pins that a reason-less or unknown //mcsdlint:
// directive is itself a diagnostic and suppresses nothing.
func TestDirectiveHygiene(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "directives"), lint.FSDiscipline,
		"mcsd/internal/smartfam")
}

// TestAllowHygiene pins the unused-allow sweep and its interplay with the
// concurrency analyzers and deadexport: a stale allow for a ran analyzer is
// reported (a deadexport allow on an identifier another package now uses
// among them), a used allow and a blanket "all" are not, and fsboundary
// silences nothing but fsdiscipline.
func TestAllowHygiene(t *testing.T) {
	linttest.Run(t, linttest.TestData(t, "directives"), lint.GoRoLeak,
		"mcsd/internal/concurrency")
	linttest.Run(t, linttest.TestData(t, "directives"), lint.DeadExport,
		"mcsd/internal/seam", "mcsd/internal/caller")
}

// TestAll pins the suite roster: a new analyzer must be registered here
// and in All() together.
func TestAll(t *testing.T) {
	want := []string{"chanbound", "ctxflow", "deadexport", "fsdiscipline", "goroleak",
		"lockhold", "metrickey", "simdet", "wirewrap"}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: missing Doc or Run", a.Name)
		}
	}
}
