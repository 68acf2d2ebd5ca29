package main

import (
	"bytes"
	"embed"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hpcmetrics/internal/study"
)

// The golden files hold, for each study workload, every number the study
// produces at full precision (math.Float64bits in hex): each prediction,
// each observed time and each base time, plus the skip set, which is
// empty for both grids. They were recorded with --record-golden; a speed
// change must reproduce them bit for bit.
//
//go:embed golden/*.txt
var goldenFS embed.FS

func goldenPath(workload string) string { return "golden/" + workload + ".txt" }

// digest maps one study output ("predicted 9 hycom-standard@59
// ARL_Opteron") to its recorded value: the hex bits of a time, or a skip
// reason.
type digest map[string]string

func bits(x float64) string { return "0x" + strconv.FormatUint(math.Float64bits(x), 16) }

// digestOf flattens a study result into its digest.
func digestOf(res *study.Results) digest {
	d := digest{}
	for _, key := range res.Cells {
		if t, ok := res.BaseTimes[key]; ok {
			d["base "+key.String()] = bits(t)
		}
		for name, t := range res.Observed[key] {
			d["observed "+key.String()+" "+name] = bits(t)
		}
		for name, s := range res.Skips[key] {
			d["skip "+key.String()+" "+name] = string(s.Reason)
		}
	}
	for _, p := range res.Predictions {
		d[fmt.Sprintf("predicted %d %s %s", p.MetricID, p.Key, p.Machine)] = bits(p.Predicted)
	}
	return d
}

// compare checks got against want entry by entry: each recorded entry is
// one checked operation, failed when missing or different, and each
// entry want lacks (a new prediction, an unexpected skip) is one more
// failed operation.
func compare(got, want digest, t *tally) {
	for _, k := range sortedKeys(want) {
		g, ok := got[k]
		switch {
		case !ok:
			t.check(fmt.Errorf("%s: missing, want %s", k, want[k]))
		case g != want[k]:
			t.check(fmt.Errorf("%s: got %s, want %s", k, g, want[k]))
		default:
			t.check(nil)
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			t.check(fmt.Errorf("%s: unexpected entry %s", k, got[k]))
		}
	}
}

func sortedKeys(d digest) []string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// encode writes one "key value" line per entry, sorted.
func (d digest) encode() []byte {
	var b bytes.Buffer
	for _, k := range sortedKeys(d) {
		b.WriteString(k + " " + d[k] + "\n")
	}
	return b.Bytes()
}

func parseDigest(raw []byte) (digest, error) {
	d := digest{}
	for n, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("line %d: want \"<key> <value>\", got %q", n+1, line)
		}
		d[line[:i]] = line[i+1:]
	}
	return d, nil
}

func loadGolden(workload string) (digest, error) {
	raw, err := goldenFS.ReadFile(goldenPath(workload))
	if err != nil {
		return nil, fmt.Errorf("golden digest: %w", err)
	}
	d, err := parseDigest(raw)
	if err != nil {
		return nil, fmt.Errorf("golden digest %s: %w", workload, err)
	}
	return d, nil
}

// writeGolden records d as the workload's golden file; it runs from the
// checkout root, like the benchmark itself.
func writeGolden(workload string, d digest) error {
	return os.WriteFile(filepath.Join("e2ebench", goldenPath(workload)), d.encode(), 0o644)
}
