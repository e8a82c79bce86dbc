package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([...], n=4) for each input.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1.5, 9, 2.5, 7, 3, 6.5, 4}, 2.5, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v, want 2.5", m)
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.Spread() != 0 {
		t.Errorf("one sample has no spread: %+v", s)
	}
}

func TestTopPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{{99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}}
	for _, c := range cases {
		p, ok := topPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("topPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
}

func TestInjectorCountsAreExact(t *testing.T) {
	recs := make([]rec, 50000)
	for i := range recs {
		recs[i] = rec{car: uint64(i % 977), cell: uint64(1000 + i%31), start: 1483315200 + uint64(i), dur: uint32(i % 600)}
	}
	render := func(seed uint64) ([]byte, [3]int) {
		inj := newInjector(seed)
		csv := []byte(csvHeader)
		for _, r := range recs {
			csv = inj.row(csv, r)
		}
		return csv, inj.injected
	}
	csv, injected := render(7)
	if again, _ := render(7); !bytes.Equal(csv, again) {
		t.Fatal("the same seed gave different faults")
	}
	if other, _ := render(8); bytes.Equal(csv, other) {
		t.Fatal("different seeds gave the same faults")
	}
	lines := strings.Split(strings.TrimSuffix(string(csv), "\n"), "\n")
	if lines[0]+"\n" != csvHeader || len(lines) != len(recs)+1 {
		t.Fatalf("%d lines with header %q, want %d rows under the standard header", len(lines), lines[0], len(recs))
	}
	var seen [3]int
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		switch {
		case len(f) == 3:
			seen[1]++
		case strings.HasPrefix(f[1], "x"):
			seen[0]++
		case f[2] > "2000000000": // ten digits either way, so the strings order as numbers
			seen[2]++
		}
	}
	if seen != injected {
		t.Errorf("found %v corrupted rows by kind, injector reported %v", seen, injected)
	}
	total := injected[0] + injected[1] + injected[2]
	if share := float64(total) / float64(len(recs)); share < faultShare/2 || share > faultShare*2 {
		t.Errorf("corrupted %d of %d rows, want about %.1f%%", total, len(recs), faultShare*100)
	}
	if injected[0]-injected[2] > 1 || injected[0] < injected[2] {
		t.Errorf("faults do not cycle evenly through the kinds: %v", injected)
	}
}

func TestFeedHourSplitsTheServeStream(t *testing.T) {
	from := uint64(1483315200 + 14*86400 - feedHours*3600)
	last := feedHours - 1
	for start, want := range map[uint64]int{from - 5: -1, from: 0, from + 3599: 0, from + 3600: 1,
		from + uint64(last)*3600: last, from + feedHours*3600 + 5: last} {
		if got := feedHour(rec{start: start}, from); got != want {
			t.Errorf("a record starting %d s into the feed lands in hour %d, want %d", int64(start)-int64(from), got, want)
		}
	}
}

func TestScanCDRRoundTripsAndDigests(t *testing.T) {
	path := t.TempDir() + "/x.cdr"
	w, err := createInput(path, "x.cdr")
	if err != nil {
		t.Fatal(err)
	}
	recs := []rec{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
	if err := w.write([]byte(cdrMagic), 0); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.write(encodeRec(nil, r), 1); err != nil {
			t.Fatal(err)
		}
	}
	wrote, err := w.close()
	if err != nil {
		t.Fatal(err)
	}
	var got []rec
	read, err := scanCDR(path, "x.cdr", func(r rec) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if read != wrote || read.Records != 3 || read.Bytes != int64(len(cdrMagic))+3*recSize || len(read.SHA256) != 64 {
		t.Errorf("wrote %+v, read back %+v", wrote, read)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReportDigestIgnoresStatusLineAndProfile(t *testing.T) {
	a := "loaded 5 records from /a/b.cdr (0 quarantined)\n\n== X ==\nbody\n\n== Pipeline profile ==\nstage add s\npresence 0.31\n\n== Data Quality ==\nread 5, ghosts 1, quarantined 0, retries 0\n"
	b := "streamed 5 records from /c.cdr (0 quarantined, 1 workers)\n\n== X ==\nbody\n\n== Pipeline profile ==\nstage add s\npresence 0.99\n\n== Data Quality ==\nread 5, ghosts 1, quarantined 0, retries 0\n"
	if reportDigest([]byte(a)) != reportDigest([]byte(b)) {
		t.Error("reports that differ only in status line and timings digest differently")
	}
	if reportDigest([]byte(a)) == reportDigest([]byte(strings.Replace(a, "body", "Body", 1))) {
		t.Error("a changed report body digests the same")
	}
	if q, ok := quality([]byte(a)); !ok || q != [3]int64{5, 1, 0} {
		t.Errorf("quality = %v, %v", q, ok)
	}
}

func TestVerdictHoldsMetricsToTheirBounds(t *testing.T) {
	tight := func(v float64) Measure {
		return Measure{Value: v, Summary: Summary{N: 7, Median: v, Q1: v * 0.99, Q3: v * 1.01}}
	}
	loose := func(v float64) Measure {
		return Measure{Value: v, Summary: Summary{N: 7, Median: v, Q1: v * 0.8, Q3: v * 1.2}}
	}
	few := func(v float64) Measure { // three set-ups: the quartiles are the extremes
		return Measure{Value: v, Summary: Summary{N: 3, Median: v, Q1: v * 0.7, Q3: v * 1.3}}
	}
	lower := specMetric{Name: "report_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "rec_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		m    specMetric
		a, b Measure
		want string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(115), "REGRESSION"},
		{lower, tight(100), tight(80), "better"},
		{higher, tight(100), tight(85), "REGRESSION"},
		{higher, tight(100), tight(120), "better"},
		{lower, tight(100), loose(104), "unresolved"},
		{lower, few(100), few(104), "ok"},
		{lower, few(100), few(130), "REGRESSION"},
		{lower, loose(100), tight(50), "better"}, // every run of b reads better than every run of a
	}
	for _, c := range cases {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestCompareRefusesMixedCohortsAndInputs(t *testing.T) {
	base := Result{Cohort: Cohort{CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1", OSArch: "linux/amd64"},
		Seed: 1, Size: "std", Seconds: 12, Inputs: []InputFile{{Name: "main.cdr", Records: 10, SHA256: "aa"}}}
	same := base
	if err := sameCohort(&base, &same); err != nil {
		t.Errorf("identical cohorts refused: %v", err)
	}
	otherCPU := base
	otherCPU.Cohort.NumCPU = 8
	otherSeed := base
	otherSeed.Seed = 2
	otherInput := base
	otherInput.Inputs = []InputFile{{Name: "main.cdr", Records: 10, SHA256: "bb"}}
	for name, r := range map[string]*Result{"cohort": &otherCPU, "seed": &otherSeed, "digest": &otherInput} {
		if err := sameCohort(&base, r); err == nil {
			t.Errorf("a result with a different %s was accepted", name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecNamesAreWellFormed lints BENCHMARK.json: every name fits the
// contract's alphabet and is used once, and its workloads are exactly
// the ones this program runs.
func TestSpecNamesAreWellFormed(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		use("metric", m.Name)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, carbench runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		use("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in carbench", i, w.Name, workloads[i].name)
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
	}
}
