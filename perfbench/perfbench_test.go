package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// testOptions points a run at this directory's fixtures and golden
// file (go test runs in the package directory).
func testOptions(workload string, seed int64) options {
	return options{
		workload: workload,
		seed:     seed,
		seconds:  0.3,
		setups:   1,
		fixtures: "fixtures",
		golden:   "golden.json",
		sessions: sessionCount(workloads[workload].sessions),
		outDir:   "",
	}
}

// TestCatalogMatches keeps BENCHMARK.json and the metric tables the
// benchmark prints in step.
func TestCatalogMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func setupEnv(t *testing.T, workload string, seed int64) *decodeEnv {
	t.Helper()
	r, err := workloads[workload].setup(testOptions(workload, seed), map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	return r.(*decodeEnv)
}

// TestSameSeedSameInputs: a seed fixes the corpus hash and the prefix
// transcript digests, and they match the golden file.
func TestSameSeedSameInputs(t *testing.T) {
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"decode-pruned", "decode-dense"} {
		a, b := setupEnv(t, wl, 3), setupEnv(t, wl, 3)
		if a.corpus.Hash() != b.corpus.Hash() {
			t.Fatalf("%s: seed 3 gave two different corpora", wl)
		}
		pa, err := a.prefix(nil)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.prefix(nil)
		if err != nil {
			t.Fatal(err)
		}
		hash, pinned, ok := g.pinned(wl, 3)
		if !ok {
			t.Fatalf("%s: golden file does not pin seed 3", wl)
		}
		if got := hex16(a.corpus.Hash()); got != hash {
			t.Fatalf("%s: seed 3 corpus hash %s, pinned %s", wl, got, hash)
		}
		for i := range pa {
			if pa[i].digest != pb[i].digest || pa[i].digest != pinned[i] {
				t.Fatalf("%s: utterance %d digest %x / %x, pinned %x", wl, i, pa[i].digest, pb[i].digest, pinned[i])
			}
		}
	}
}

// TestHeldOutSeedPasses: a seed the golden file does not pin gives a
// different corpus and still passes every output check.
func TestHeldOutSeedPasses(t *testing.T) {
	const heldOut = 424242
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := g.pinned("decode-pruned", heldOut); ok {
		t.Fatalf("seed %d is pinned; pick another", heldOut)
	}
	for _, wl := range []string{"decode-pruned", "decode-dense"} {
		e := setupEnv(t, wl, heldOut)
		if pinned, _, _ := g.pinned(wl, 1); pinned == "" || pinned == hex16(e.corpus.Hash()) {
			t.Fatalf("%s: held-out corpus hash equals seed 1's", wl)
		}
		r := newReport()
		if err := e.measure(testOptions(wl, heldOut), r); err != nil {
			t.Fatal(err)
		}
		if len(r.failures) > 0 || r.attempted == 0 {
			t.Fatalf("%s: held-out seed: attempted %d, failures %v", wl, r.attempted, r.failures)
		}
	}
}

// TestChecksCatchWrongOutput: one altered transcript in the prefix
// fails the pinned-digest check and counts as one failed operation.
func TestChecksCatchWrongOutput(t *testing.T) {
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	e := setupEnv(t, "decode-pruned", 1)
	pre, err := e.prefix(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	checkPrefix(r, g, "decode-pruned", 1, e.corpus, pre)
	if len(r.failures) != 0 {
		t.Fatalf("unaltered prefix failed: %v", r.failures)
	}
	pre[5].digest ^= 1
	checkPrefix(r, g, "decode-pruned", 1, e.corpus, pre)
	if r.failed != 1 {
		t.Fatalf("altered transcript: failed = %d, want 1 (%v)", r.failed, r.failures)
	}
}

// TestSplicerMatches: the reusable splicer yields bench.Corpus.Spliced's
// frames bit for bit.
func TestSplicerMatches(t *testing.T) {
	e := setupEnv(t, "decode-pruned", 1)
	var sp splicer
	for _, u := range []int{0, 7, 3, 99} {
		if got, want := sp.splice(e.corpus, u), e.corpus.Spliced(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("utterance %d: splicer differs from Corpus.Spliced", u)
		}
	}
}

// TestFixtureHashVerified: a fixture whose bytes do not match
// SHA256SUMS is refused.
func TestFixtureHashVerified(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fixtureTinyP90), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	sums, err := os.ReadFile(filepath.Join("fixtures", fixtureSums))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fixtureSums), sums, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fixturePath(dir, fixtureTinyP90); err == nil {
		t.Fatal("a fixture with the wrong hash was accepted")
	}
	if _, err := fixturePath("fixtures", fixtureTinyP90); err != nil {
		t.Fatal(err)
	}
}

// TestBlockP99: op_p99_ms is the median of the p99s of 1000-utterance
// blocks in completion order, so a burst confined to one block does
// not set it; a run too short for two blocks reports its pooled p99.
func TestBlockP99(t *testing.T) {
	t0 := time.Now()
	var lat []float64
	var ends []time.Time
	for i := 0; i < 3*p99Block; i++ {
		v := float64(i%p99Block + 1)
		if i/p99Block == 1 {
			v = 5000 // the middle block runs through a burst
		}
		lat = append(lat, v)
		ends = append(ends, t0.Add(time.Duration(i)*time.Millisecond))
	}
	// The workers' samples arrive interleaved, not in completion order.
	rev := func(xs []float64, ts []time.Time) ([]float64, []time.Time) {
		rx, rt := append([]float64(nil), xs...), append([]time.Time(nil), ts...)
		for i, j := 0, len(rx)-1; i < j; i, j = i+1, j-1 {
			rx[i], rx[j], rt[i], rt[j] = rx[j], rx[i], rt[j], rt[i]
		}
		return rx, rt
	}
	rl, re := rev(lat, ends)
	if got := blockP99(rl, re); got != 990 {
		t.Errorf("blockP99 = %v, want 990 (pooled p99 is %v)", got, nearestRank(lat, 0.99))
	}
	short, shortEnds := lat[:p99Block+p99Block/2], ends[:p99Block+p99Block/2]
	if got, want := blockP99(short, shortEnds), nearestRank(short, 0.99); got != want {
		t.Errorf("short run: blockP99 = %v, want the pooled p99 %v", got, want)
	}
}
