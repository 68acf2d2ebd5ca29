package memsim

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/obs"
)

// Every field of machine.Config, machine.CacheLevel and machine.Network
// is either counting — part of the memo key, because the simulator's
// counters depend on it — or pricing — read only by Price, validation,
// or other packages. A field added to machine without a class here
// fails TestMemoKeyCoversCountingFields, so the key cannot go stale.
var (
	countingFields = []string{
		"Caches.SizeBytes", "Caches.LineBytes", "Caches.Assoc",
		"PrefetchStreams", "PrefetchMaxStride", "TLBEntries", "PageBytes",
	}
	pricingFields = []string{
		"Name", "Vendor", "ClockGHz", "FPPerCycle", "FPLatencyCycles",
		"IssueWidth", "LoadStorePerCycle", "BranchMispredictPenaltyCycles",
		"MaxOutstandingMisses",
		"Caches.Name", "Caches.LatencyCycles", "Caches.BandwidthBytesPerCycle",
		"MemLatencyNs", "MemBandwidthGBs", "MemLoadedFraction",
		"MemLoadedLatencyFactor", "TLBMissPenaltyNs", "CoresPerNode",
		"TotalProcs", "MemOverlapFraction",
		"Net.LatencyUs", "Net.BandwidthMBs", "Net.OverheadUs",
		"Net.NICsPerNode", "Net.Topology", "Net.ContentionBeta",
	}
)

// leafFields lists the dotted paths of every non-struct field under t,
// descending into nested structs and slices of structs.
func leafFields(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := prefix + f.Name
		ft := f.Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, leafFields(ft, path+".")...)
			continue
		}
		out = append(out, path)
	}
	return out
}

// fieldsAt returns the addressable values at a dotted path of cfg: one
// per cache level for Caches.* paths.
func fieldsAt(cfg *machine.Config, path string) []reflect.Value {
	vals := []reflect.Value{reflect.ValueOf(cfg).Elem()}
	for _, name := range strings.Split(path, ".") {
		var next []reflect.Value
		for _, v := range vals {
			f := v.FieldByName(name)
			if f.Kind() == reflect.Slice {
				for i := 0; i < f.Len(); i++ {
					next = append(next, f.Index(i))
				}
				continue
			}
			next = append(next, f)
		}
		vals = next
	}
	return vals
}

// perturb changes the level-th value at path to the first candidate that
// keeps the machine valid, and reports whether one did.
func perturb(base *machine.Config, path string, level int) (*machine.Config, bool) {
	orig := fieldsAt(base, path)[level]
	var candidates []func(reflect.Value)
	switch orig.Kind() {
	case reflect.Float64:
		x := orig.Float()
		for _, y := range []float64{x * 1.5, x * 0.5, x + 0.1, x + 0.5} {
			candidates = append(candidates, func(v reflect.Value) { v.SetFloat(y) })
		}
	case reflect.Int, reflect.Int64:
		x := orig.Int()
		for _, y := range []int64{x * 2, x + 1, x - 1} {
			candidates = append(candidates, func(v reflect.Value) { v.SetInt(y) })
		}
	case reflect.String:
		candidates = append(candidates, func(v reflect.Value) { v.SetString(v.String() + "'") })
	}
	for _, set := range candidates {
		cfg := base.Clone()
		v := fieldsAt(cfg, path)[level]
		set(v)
		if !reflect.DeepEqual(v.Interface(), orig.Interface()) && cfg.Validate() == nil {
			return cfg, true
		}
	}
	return nil, false
}

// TestMemoKeyCoversCountingFields walks every machine field: each must
// be classified; perturbing a counting field must change the memo key,
// and perturbing a pricing field must change neither the key nor Count.
func TestMemoKeyCoversCountingFields(t *testing.T) {
	class := map[string]string{}
	for _, f := range countingFields {
		class[f] = "counting"
	}
	for _, f := range pricingFields {
		class[f] = "pricing"
	}
	leaves := leafFields(reflect.TypeOf(machine.Config{}), "")
	seen := map[string]bool{}
	for _, f := range leaves {
		seen[f] = true
		if class[f] == "" {
			t.Errorf("machine field %s is unclassified: add it to countingFields (and geometryOf) or pricingFields", f)
		}
	}
	for f := range class {
		if !seen[f] {
			t.Errorf("classified field %s no longer exists in machine.Config", f)
		}
	}

	base := machine.MustPreset(machine.ARLAltix) // 3 levels, prefetcher, TLB
	specs := []access.StreamSpec{
		{WorkingSetBytes: 2 << 20, Mix: access.Mix{Unit: 0.5, Short: 0.2, Random: 0.3}, StoreFraction: 0.3, Seed: 7},
		{WorkingSetBytes: 64 << 20, Mix: access.Mix{Random: 1}, StoreFraction: 0.5, Seed: 9},
	}
	const n = 4_000
	want := make([]Stats, len(specs))
	for i, spec := range specs {
		st, err := Count(base, spec, n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = st
	}
	baseKey := geometryOf(base)
	for _, f := range leaves {
		if class[f] == "" {
			continue
		}
		levels := []int{0}
		if strings.HasPrefix(f, "Caches.") {
			levels = []int{0, len(base.Caches) - 1}
		}
		for _, level := range levels {
			cfg, ok := perturb(base, f, level)
			if !ok {
				t.Errorf("%s[%d]: no valid perturbation", f, level)
				continue
			}
			sameKey := geometryOf(cfg) == baseKey
			if class[f] == "counting" {
				if sameKey {
					t.Errorf("counting field %s[%d] changed but the memo key did not", f, level)
				}
				continue
			}
			if !sameKey {
				t.Errorf("pricing field %s[%d] changed the memo key", f, level)
			}
			for i, spec := range specs {
				st, err := Count(cfg, spec, n)
				if err != nil {
					t.Fatalf("%s[%d]: %v", f, level, err)
				}
				if !reflect.DeepEqual(st, want[i]) {
					t.Errorf("pricing field %s[%d] changed Count: %+v, want %+v", f, level, st, want[i])
				}
			}
		}
	}
}

// meterValue reads a counter from the context's registry.
func meterValue(o *obs.Obs, name string) int64 {
	return o.Meter().Counter(name).Value()
}

// TestMemoHerdCountsOnce: N goroutines on one cold key count it once;
// every other caller hits or coalesces, and all see the same counters.
func TestMemoHerdCountsOnce(t *testing.T) {
	const herd = 16
	memo := NewMemo()
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	ctx := o.Inject(context.Background())
	cfg := machine.MustPreset(machine.ARLOpteron)
	spec := access.StreamSpec{WorkingSetBytes: 8 << 20, Mix: access.Mix{Unit: 0.7, Random: 0.3}, StoreFraction: 0.25, Seed: 3}
	const n = 100_000
	want, err := Count(cfg, spec, n)
	if err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	results := make([]Stats, herd)
	errs := make([]error, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = memo.Count(ctx, cfg, spec, n)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("caller %d got %+v, want %+v", i, results[i], want)
		}
	}
	st := memo.Snapshot()
	if st.Misses != 1 || st.Hits+st.Coalesced != herd-1 || st.Keys != 1 {
		t.Errorf("herd of %d: %+v, want 1 miss and %d hits+coalesced", herd, st, herd-1)
	}
	if got := meterValue(o, "memsim_count_misses_total"); got != 1 {
		t.Errorf("memsim_count_misses_total = %d, want 1", got)
	}
	if got := meterValue(o, "memsim_count_hits_total") + meterValue(o, "memsim_count_coalesced_total"); got != herd-1 {
		t.Errorf("hits+coalesced counters = %d, want %d", got, herd-1)
	}
}

// TestMemoReturnsCopies: mutating a returned Stats, the leader's or a
// hit's, never reaches the next hit.
func TestMemoReturnsCopies(t *testing.T) {
	memo := NewMemo()
	ctx := context.Background()
	cfg := tinyMachine()
	spec := access.StreamSpec{WorkingSetBytes: 4 << 10, Mix: access.Mix{Random: 1}, Seed: 1}
	first, err := memo.Count(ctx, cfg, spec, 500)
	if err != nil {
		t.Fatal(err)
	}
	want := first.clone()
	first.ServedBy[0], first.Covered[1] = -1, -1
	second, err := memo.Count(ctx, cfg, spec, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("leader's mutation leaked into the hit: %+v, want %+v", second, want)
	}
	second.ServedBy[len(second.ServedBy)-1] = -1
	third, err := memo.Count(ctx, cfg, spec, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, want) {
		t.Fatalf("hit's mutation leaked into the next hit: %+v, want %+v", third, want)
	}
}

// TestMemoNeverCachesErrors: a failing count is recounted every time,
// and a hit never excuses a machine that Count would reject.
func TestMemoNeverCachesErrors(t *testing.T) {
	memo := NewMemo()
	ctx := context.Background()
	cfg := tinyMachine()
	bad := access.StreamSpec{WorkingSetBytes: 0, Mix: access.Mix{Unit: 1}}
	for i := 0; i < 2; i++ {
		if _, err := memo.Count(ctx, cfg, bad, 100); err == nil {
			t.Fatal("memo accepted an invalid spec")
		}
	}
	if st := memo.Snapshot(); st.Misses != 2 || st.Keys != 0 || st.Hits != 0 {
		t.Errorf("after two failed counts: %+v, want 2 misses and no keys", st)
	}

	good := access.StreamSpec{WorkingSetBytes: 4 << 10, Mix: access.Mix{Unit: 1}, Seed: 1}
	if _, err := memo.Count(ctx, cfg, good, 100); err != nil {
		t.Fatal(err)
	}
	broken := cfg.Clone()
	broken.ClockGHz = 0 // a pricing field: same key, but not a valid machine
	if _, err := memo.Count(ctx, broken, good, 100); err == nil {
		t.Fatal("memo hit excused an invalid machine")
	}
}

// TestMemoCapacityEvictsOldest: the memo never holds more than its
// capacity of settled counts, evicts the oldest first, and counts each
// eviction.
func TestMemoCapacityEvictsOldest(t *testing.T) {
	const capacity = 3
	memo := newMemo(capacity)
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	ctx := o.Inject(context.Background())
	cfg := tinyMachine()
	spec := func(seed uint64) access.StreamSpec {
		return access.StreamSpec{WorkingSetBytes: 4 << 10, Mix: access.Mix{Random: 1}, Seed: seed}
	}
	for seed := uint64(0); seed < 5; seed++ {
		if _, err := memo.Count(ctx, cfg, spec(seed), 100); err != nil {
			t.Fatal(err)
		}
		if keys := memo.Snapshot().Keys; keys > capacity {
			t.Fatalf("memo holds %d keys, capacity %d", keys, capacity)
		}
	}
	st := memo.Snapshot()
	if st.Keys != capacity || st.Evictions != 2 || st.Misses != 5 {
		t.Errorf("after 5 distinct counts: %+v, want %d keys, 2 evictions, 5 misses", st, capacity)
	}
	if got := meterValue(o, "memsim_count_evictions_total"); got != 2 {
		t.Errorf("memsim_count_evictions_total = %d, want 2", got)
	}
	// Seeds 2-4 survive; seed 0 was evicted first.
	if _, err := memo.Count(ctx, cfg, spec(4), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := memo.Count(ctx, cfg, spec(0), 100); err != nil {
		t.Fatal(err)
	}
	if st := memo.Snapshot(); st.Hits != 1 || st.Misses != 6 || st.Evictions != 3 {
		t.Errorf("after re-counting a kept and an evicted key: %+v, want 1 hit, 6 misses, 3 evictions", st)
	}
}

// TestMemoTravelsInContext: SimulateStreamContext counts through the
// context's memo, and without one counts directly.
func TestMemoTravelsInContext(t *testing.T) {
	if MemoFrom(context.Background()) != nil {
		t.Fatal("background context carries a memo")
	}
	var nilMemo *Memo
	if ctx := context.Background(); nilMemo.Inject(ctx) != ctx {
		t.Fatal("nil memo changed the context")
	}
	memo := NewMemo()
	ctx := memo.Inject(context.Background())
	if MemoFrom(ctx) != memo {
		t.Fatal("MemoFrom lost the injected memo")
	}
	cfg := machine.MustPreset(machine.MHPCC690)
	spec := access.StreamSpec{WorkingSetBytes: 1 << 20, Mix: access.Mix{Unit: 1}, Seed: 1}
	want, err := SimulateStream(cfg, spec, 5_000, TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range pricings {
		if _, err := SimulateStreamContext(ctx, cfg, spec, 5_000, opts); err != nil {
			t.Fatal(err)
		}
	}
	got, err := SimulateStreamContext(ctx, cfg.Loaded(), spec, 5_000, TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st := memo.Snapshot(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("three pricings of one stream: %+v, want 1 miss and 2 hits", st)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("loaded machine counted differently: %+v, want %+v", got.Stats, want.Stats)
	}
}
