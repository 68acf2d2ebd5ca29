package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q does not match %s", s.Name, nameRE)
		}
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", s.Name, s.Unit, unitRE)
		}
		if seen[s.Name] {
			t.Errorf("metric %s listed twice", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json at the repository
// root names exactly the workloads and metrics this program reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := mustJSON(t, names), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, c := range []struct {
		what  string
		json  []struct{ Name, Unit string }
		specs []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.what, len(c.json), len(c.specs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.specs[i].Name || m.Unit != c.specs[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)",
					c.what, i, m.Name, m.Unit, c.specs[i].Name, c.specs[i].Unit)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestResultNeedsEveryMetric(t *testing.T) {
	r := newReport()
	r.check(nil)
	for _, s := range endToEnd[1:] {
		r.values[s.Name] = 1
	}
	if _, err := r.result(endToEnd); err == nil {
		t.Fatalf("result with %s unmeasured: no error", endToEnd[0].Name)
	}
	r.values[endToEnd[0].Name] = 1
	line, err := r.result(endToEnd)
	if err != nil || !line.Correct || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("complete result: %+v, %v", line, err)
	}
}

// TestCorruptedDigestIsAFailure checks that the study correctness check
// notices one changed bit, one missing prediction and one unexpected
// skip, each as exactly one failed operation.
func TestCorruptedDigestIsAFailure(t *testing.T) {
	for _, w := range []string{"study-probes", "study-apps"} {
		want, err := loadGolden(w)
		if err != nil {
			t.Fatal(err)
		}
		var clean tally
		compare(want, want, &clean)
		if clean.failed != 0 || clean.attempted != int64(len(want)) {
			t.Fatalf("%s: golden against itself: %d of %d failed", w, clean.failed, clean.attempted)
		}
		keys := sortedKeys(want)
		for _, corrupt := range []func(d digest){
			func(d digest) { d[keys[len(keys)-1]] += "1" },
			func(d digest) { delete(d, keys[0]) },
			func(d digest) { d["skip hycom-standard@59 ARL_Opteron"] = "error" },
		} {
			got := digest{}
			for k, v := range want {
				got[k] = v
			}
			corrupt(got)
			var tl tally
			compare(got, want, &tl)
			if tl.failed != 1 {
				t.Errorf("%s: corrupted digest: %d failures, want 1", w, tl.failed)
			}
		}
	}
}

func TestDigestRoundTrip(t *testing.T) {
	d := digest{"predicted 9 hycom-standard@59 ARL_Opteron": bits(1.5), "base hycom-standard@59": bits(2)}
	back, err := parseDigest(d.encode())
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, back) != mustJSON(t, d) {
		t.Fatalf("round trip: %v, want %v", back, d)
	}
}

func TestRankingCheck(t *testing.T) {
	app := fillApps[0]
	cold := map[key]float64{}
	var rk ranking
	rk.App, rk.Case, rk.MetricID = app[0], app[1], 9
	for i, tg := range fillTargets {
		v := float64(i + 1)
		cold[key{app: app[0], caseName: app[1], target: tg, metric: 9}] = v
		rk.Entries = append(rk.Entries, prediction{
			App: app[0], Case: app[1], Procs: 64, Machine: tg, MetricID: 9, PredictedSeconds: &v,
		})
	}
	if err := checkRanking(rk, app, 9, 64, cold); err != nil {
		t.Fatalf("consistent ranking: %v", err)
	}
	off := *rk.Entries[2].PredictedSeconds + 1e-12
	rk.Entries[2].PredictedSeconds = &off
	if err := checkRanking(rk, app, 9, 64, cold); err == nil {
		t.Fatal("rank entry differing from /v1/predict in the last bits: no error")
	}
	rk.Entries[1], rk.Entries[2] = rk.Entries[2], rk.Entries[1]
	if err := checkRanking(rk, app, 9, 64, cold); err == nil {
		t.Fatal("out-of-order ranking: no error")
	}
}

func TestMetric4Check(t *testing.T) {
	cold := map[key]float64{}
	for _, a := range fillApps {
		for _, tg := range fillTargets {
			cold[key{app: a[0], caseName: a[1], target: tg, metric: 1}] = 10
			cold[key{app: a[0], caseName: a[1], target: tg, metric: 4}] = 10 * (1 + 1e-12)
		}
	}
	var ok tally
	checkMetric4(cold, &ok)
	if ok.failed != 0 {
		t.Fatalf("metric 4 within 1e-9 of metric 1: %d failures", ok.failed)
	}
	cold[key{app: fillApps[0][0], caseName: fillApps[0][1], target: fillTargets[0], metric: 4}] = 11
	var bad tally
	checkMetric4(cold, &bad)
	if bad.failed != 1 {
		t.Fatalf("one diverging metric 4: %d failures, want 1", bad.failed)
	}
}

func TestSelfTimes(t *testing.T) {
	// Root 0-100 with two overlapping children 10-50 and 30-70 (covering
	// 10-70), the first with a child 20-30.
	spans := []span{
		{ID: 1, Name: "replay", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "cell", Start: 30, End: 70},
		{ID: 4, Parent: 2, Name: "trace", Start: 20, End: 30},
	}
	lt := selfTimes(spans)
	for name, want := range map[string]float64{"replay": 40e-9, "cell": 70e-9, "trace": 10e-9} {
		if got := lt.self[name]; got < want-1e-15 || got > want+1e-15 {
			t.Errorf("self[%s] = %g, want %g", name, got, want)
		}
	}
	if lt.calls["cell"] != 2 || lt.total["cell"] < 80e-9-1e-15 {
		t.Errorf("cell: %d calls, total %g", lt.calls["cell"], lt.total["cell"])
	}
}

// TestStudyAppsCorrect runs the study-apps grid and checks it against
// the golden digest and the warm re-predictions: fail_frac is 0.
func TestStudyAppsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 15-cell study")
	}
	e := env{workload: "study-apps", out: t.TempDir()}
	opts, err := studyOptions(e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadGolden(e.workload)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runFreshStudy(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	compare(digestOf(run.res), want, &tl)
	if _, _, err := warmQueries(context.Background(), run.res, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("study-apps: %d of %d checks failed", tl.failed, tl.attempted)
	}
}

// TestPredictdMixedCorrect builds cmd/predictd and runs the
// predictd-mixed workload with a short hot phase: every check passes and
// every end-to-end metric is positive.
func TestPredictdMixedCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("starts predictd and fills its cache")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "predictd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/predictd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building predictd: %v\n%s", err, out)
	}
	e := env{workload: "predictd-mixed", seed: 1, seconds: 3 * time.Second, predictd: bin, out: dir}
	r := newReport()
	if err := runPredictd(context.Background(), e, r); err != nil {
		t.Fatal(err)
	}
	line, err := r.result(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 {
		t.Fatalf("predictd-mixed: %d of %d checks failed", line.Failed, line.Attempted)
	}
	for name, m := range line.Metrics {
		if !(m.Value > 0) {
			t.Errorf("%s = %g, want > 0", name, m.Value)
		}
	}
}
