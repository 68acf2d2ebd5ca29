package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"hpcmetrics"
	"hpcmetrics/internal/persist"
	"hpcmetrics/internal/trace"
)

// TestValidateTraceRejectsCaseMismatch is the regression test for the
// trust gap where a reused trace was validated by application and
// processor count but not by test case: an avus-standard trace must not
// silently drive an avus-large prediction.
func TestValidateTraceRejectsCaseMismatch(t *testing.T) {
	tc, err := hpcmetrics.LookupTestCase("avus", "large")
	if err != nil {
		t.Fatal(err)
	}
	tr := &hpcmetrics.Trace{App: "avus", Case: "standard", Procs: 128}
	err = validateTrace(tr, tc, 128)
	if err == nil {
		t.Fatal("case-mismatched trace accepted")
	}
	if !strings.Contains(err.Error(), "avus-standard@128") || !strings.Contains(err.Error(), "avus-large@128") {
		t.Errorf("mismatch error %q does not name both cells", err)
	}

	// The matching identity still passes, and app/procs mismatches are
	// still caught.
	if err := validateTrace(&hpcmetrics.Trace{App: "avus", Case: "large", Procs: 128}, tc, 128); err != nil {
		t.Errorf("matching trace rejected: %v", err)
	}
	if err := validateTrace(&hpcmetrics.Trace{App: "hycom", Case: "large", Procs: 128}, tc, 128); err == nil {
		t.Error("app-mismatched trace accepted")
	}
	if err := validateTrace(&hpcmetrics.Trace{App: "avus", Case: "large", Procs: 64}, tc, 128); err == nil {
		t.Error("procs-mismatched trace accepted")
	}
}

// TestTraceFlagRejectsCaseMismatch drives the full CLI against a
// persisted trace of the wrong test case and expects exit code 1 with
// both cell identities in the diagnostic. The trace is validated before
// any probe or execution runs, so the test is cheap enough for -short.
func TestTraceFlagRejectsCaseMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "avus-standard.trace")
	// One block keeps persist.LoadTrace from rejecting the file as empty,
	// so the run reaches the identity validation under test.
	tr := &trace.Trace{App: "avus", Case: "standard", Procs: 128, Blocks: make([]trace.BlockTrace, 1)}
	if err := persist.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-app", "avus", "-case", "large", "-procs", "128", "-target", "ARL_Opteron", "-trace", path},
		&stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "avus-standard@128") {
		t.Errorf("stderr %q does not identify the mismatched trace", stderr.String())
	}
}

// TestMetricAndAllMutuallyExclusive: -metric alongside -all used to
// silently ignore -metric; now the combination is a usage error, before
// any probing or tracing runs.
func TestMetricAndAllMutuallyExclusive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-app", "avus", "-target", "ARL_Opteron", "-metric", "5", "-all"},
		&stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (usage error)", code)
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") {
		t.Errorf("stderr %q does not explain the flag conflict", stderr.String())
	}
	// -all with the -metric default left unset stays valid usage (it
	// would run the full prediction, so only the flag layer is checked
	// here via a missing -app).
	stderr.Reset()
	if code := run(context.Background(), []string{"-target", "ARL_Opteron", "-all"}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing -app exit code %d, want 2", code)
	}
	if strings.Contains(stderr.String(), "mutually exclusive") {
		t.Errorf("-all without explicit -metric wrongly reported as a conflict: %q", stderr.String())
	}
}
