package radio

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"cellcars/internal/geo"
)

func TestCarrierTable(t *testing.T) {
	cs := Carriers()
	if len(cs) != NumCarriers {
		t.Fatalf("carriers = %d, want %d", len(cs), NumCarriers)
	}
	for i, c := range cs {
		if c.ID != CarrierID(i+1) {
			t.Fatalf("carrier %d has id %v", i, c.ID)
		}
		if c.PRBs <= 0 || c.BandwidthMHz <= 0 {
			t.Fatalf("carrier %v has non-positive capacity", c.ID)
		}
	}
	// C2 is the legacy 3G layer; everything else is LTE.
	if TechOf(C2) != Tech3G {
		t.Fatalf("C2 tech = %v", TechOf(C2))
	}
	for _, id := range []CarrierID{C1, C3, C4, C5} {
		if TechOf(id) != Tech4G {
			t.Fatalf("%v tech = %v, want 4G", id, TechOf(id))
		}
	}
}

func TestCarrierStrings(t *testing.T) {
	if C3.String() != "C3" {
		t.Fatalf("C3 = %q", C3.String())
	}
	if CarrierID(0).String() != "C?(0)" || CarrierID(9).Valid() {
		t.Fatal("invalid carrier handling")
	}
	if Tech3G.String() != "3G" || Tech4G.String() != "4G" {
		t.Fatal("tech names")
	}
	if Tech(9).String() != "tech(9)" {
		t.Fatal("unknown tech name")
	}
}

func TestCarrierByIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CarrierByID(CarrierID(0))
}

func TestCellKeyRoundTrip(t *testing.T) {
	f := func(bs uint32, sector uint8, carrierRaw uint8) bool {
		carrier := CarrierID(carrierRaw%NumCarriers) + C1
		k := MakeCellKey(BSID(bs), SectorID(sector), carrier)
		return k.BS() == BSID(bs) && k.Sector() == SectorID(sector) && k.Carrier() == carrier && !k.IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCellKeyString(t *testing.T) {
	k := MakeCellKey(102, 1, C3)
	if got := k.String(); got != "bs102/s1/C3" {
		t.Fatalf("String = %q", got)
	}
	if !CellKey(0).IsZero() {
		t.Fatal("zero key not IsZero")
	}
}

func TestMakeCellKeyPanicsOnBadCarrier(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakeCellKey(1, 0, CarrierID(0))
}

func TestClassifyHandover(t *testing.T) {
	cases := []struct {
		name string
		a, b CellKey
		want HandoverKind
	}{
		{"same cell", MakeCellKey(1, 0, C1), MakeCellKey(1, 0, C1), HandoverNone},
		{"different bs", MakeCellKey(1, 0, C1), MakeCellKey(2, 0, C1), HandoverInterBS},
		{"different bs and carrier", MakeCellKey(1, 0, C1), MakeCellKey(2, 1, C3), HandoverInterBS},
		{"3G to 4G same bs", MakeCellKey(1, 0, C2), MakeCellKey(1, 0, C3), HandoverInterTech},
		{"carrier same sector", MakeCellKey(1, 0, C3), MakeCellKey(1, 0, C4), HandoverInterCarrier},
		{"sector change", MakeCellKey(1, 0, C3), MakeCellKey(1, 1, C3), HandoverInterSector},
		{"sector and carrier change", MakeCellKey(1, 0, C3), MakeCellKey(1, 1, C4), HandoverInterSector},
	}
	for _, c := range cases {
		if got := ClassifyHandover(c.a, c.b); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestHandoverKindString(t *testing.T) {
	names := map[HandoverKind]string{
		HandoverInterBS:      "inter-base-station",
		HandoverInterTech:    "inter-technology",
		HandoverInterCarrier: "inter-carrier",
		HandoverInterSector:  "inter-sector",
		HandoverNone:         "none",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d: %q, want %q", k, got, want)
		}
	}
	if HandoverKind(200).String() != "handover(200)" {
		t.Fatal("unknown handover name")
	}
}

func testNetwork(t *testing.T) *Network {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	return Build(Config{World: geo.DefaultWorld(40)}, rng)
}

func TestBuildBasicProperties(t *testing.T) {
	n := testNetwork(t)
	if n.NumStations() == 0 {
		t.Fatal("no stations built")
	}
	if n.NumCells() < n.NumStations()*3 {
		t.Fatalf("cells = %d for %d stations; every site needs >= 3 cells",
			n.NumCells(), n.NumStations())
	}
	for i := range n.Stations {
		s := &n.Stations[i]
		if s.ID != BSID(i) {
			t.Fatalf("station %d has id %d", i, s.ID)
		}
		if len(s.Carriers) == 0 {
			t.Fatalf("station %d has no carriers", i)
		}
		if !n.World.Bounds.Contains(s.Loc) && n.World.Bounds.Clamp(s.Loc) != s.Loc {
			t.Fatalf("station %d outside world: %v", i, s.Loc)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(Config{World: geo.DefaultWorld(30)}, rand.New(rand.NewPCG(5, 5)))
	b := Build(Config{World: geo.DefaultWorld(30)}, rand.New(rand.NewPCG(5, 5)))
	if a.NumStations() != b.NumStations() {
		t.Fatalf("station counts differ: %d vs %d", a.NumStations(), b.NumStations())
	}
	for i := range a.Stations {
		if a.Stations[i].Loc != b.Stations[i].Loc {
			t.Fatalf("station %d at %v vs %v", i, a.Stations[i].Loc, b.Stations[i].Loc)
		}
	}
}

func TestBuildDensityGradient(t *testing.T) {
	n := testNetwork(t)
	counts := map[geo.Density]int{}
	for i := range n.Stations {
		counts[n.Stations[i].Density]++
	}
	if counts[geo.Urban] == 0 || counts[geo.Suburban] == 0 || counts[geo.Rural] == 0 {
		t.Fatalf("expected all densities represented: %v", counts)
	}
	// Urban core is 1/25 of the area yet should hold a sizeable share of
	// sites thanks to 1 km spacing vs 7 km rural spacing.
	if counts[geo.Urban] < counts[geo.Rural]/4 {
		t.Fatalf("urban density not reflected: %v", counts)
	}
}

func TestBuildC5Sparse(t *testing.T) {
	n := testNetwork(t)
	withC5 := 0
	for i := range n.Stations {
		if n.Stations[i].HasCarrier(C5) {
			withC5++
		}
	}
	frac := float64(withC5) / float64(n.NumStations())
	if frac > 0.3 {
		t.Fatalf("C5 deployed at %.0f%% of sites; should be sparse", frac*100)
	}
}

func TestNearestStation(t *testing.T) {
	n := testNetwork(t)
	probes := []geo.Point{
		{X: 1, Y: 1}, {X: 20, Y: 20}, {X: 39, Y: 5}, {X: 15, Y: 33},
	}
	for _, p := range probes {
		got := n.NearestStation(p)
		// Brute force check.
		best, bestD := BSID(0), n.Stations[0].Loc.Dist(p)
		for i := range n.Stations {
			if d := n.Stations[i].Loc.Dist(p); d < bestD {
				best, bestD = n.Stations[i].ID, d
			}
		}
		if n.Stations[got].Loc.Dist(p) > bestD+1e-9 {
			t.Errorf("NearestStation(%v) = %d (d=%.3f), brute force %d (d=%.3f)",
				p, got, n.Stations[got].Loc.Dist(p), best, bestD)
		}
	}
}

func TestSectorToward(t *testing.T) {
	bs := BaseStation{Loc: geo.Point{X: 0, Y: 0}, Sectors: 3}
	seen := map[SectorID]bool{}
	pts := []geo.Point{
		{X: 1, Y: 0}, {X: -1, Y: 1}, {X: -1, Y: -1},
		{X: 0, Y: 1}, {X: 0, Y: -1}, {X: 1, Y: 1},
	}
	for _, p := range pts {
		s := bs.SectorToward(p)
		if int(s) >= bs.Sectors {
			t.Fatalf("sector %d out of range", s)
		}
		seen[s] = true
	}
	if len(seen) < 3 {
		t.Fatalf("directions map to only %d sectors", len(seen))
	}
	one := BaseStation{Loc: geo.Point{X: 0, Y: 0}, Sectors: 1}
	if one.SectorToward(geo.Point{X: 5, Y: 5}) != 0 {
		t.Fatal("single-sector site must always return sector 0")
	}
}

func TestStationCells(t *testing.T) {
	bs := BaseStation{ID: 7, Sectors: 3, Carriers: []CarrierID{C1, C3}}
	cells := bs.Cells()
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	seen := map[CellKey]bool{}
	for _, c := range cells {
		if c.BS() != 7 {
			t.Fatalf("cell %v has wrong bs", c)
		}
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
	}
}

func TestBuildPanicsWithoutWorld(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(Config{}, rand.New(rand.NewPCG(1, 1)))
}

func TestAllCellsMatchesNumCells(t *testing.T) {
	n := testNetwork(t)
	if got := len(n.AllCells()); got != n.NumCells() {
		t.Fatalf("AllCells = %d, NumCells = %d", got, n.NumCells())
	}
}

// bruteNearest is the reference nearest-station query: a scan of every
// station keeping the argmin under (distance, id).
func bruteNearest(stations []BaseStation, p geo.Point) BSID {
	best, bestD := stations[0].ID, stations[0].Loc.Dist(p)
	for i := range stations[1:] {
		s := &stations[i+1]
		if d := s.Loc.Dist(p); d < bestD || d == bestD && s.ID < best {
			best, bestD = s.ID, d
		}
	}
	return best
}

// TestNearestMatchesBruteForce holds the spatial grid's ring search to
// a scan of every station, id for id: on random probes (some outside
// the world), on every grid-cell corner and edge midpoint, and on a
// hand-built network of exactly equidistant stations where only the
// lower id is right. The generator's bytes depend on the id chosen on a
// tie, so a distance that matches is not enough.
func TestNearestMatchesBruteForce(t *testing.T) {
	n := testNetwork(t)
	check := func(n *Network, p geo.Point) {
		t.Helper()
		if got, want := n.NearestStation(p), bruteNearest(n.Stations, p); got != want {
			t.Fatalf("p=%v: grid %d (%.17g km), brute force %d (%.17g km)",
				p, got, n.Stations[got].Loc.Dist(p), want, n.Stations[want].Loc.Dist(p))
		}
	}
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 2000; trial++ {
		check(n, geo.Point{
			X: rng.Float64()*44 - 2, // includes points slightly outside the world
			Y: rng.Float64()*44 - 2,
		})
	}
	g := &n.grid
	for y := 0; y <= g.rows; y++ {
		for x := 0; x <= g.cols; x++ {
			at := func(fx, fy float64) geo.Point {
				return geo.Point{X: g.origin.X + fx*g.cellKm, Y: g.origin.Y + fy*g.cellKm}
			}
			check(n, at(float64(x), float64(y)))
			check(n, at(float64(x)+0.5, float64(y)))
			check(n, at(float64(x), float64(y)+0.5))
		}
	}

	// One-km cells from the origin (0, 0). Probe (1.75, 0.5) lies in
	// cell (1, 0) with station 2 there and station 1 in ring 1, both
	// 0.5 km away; probe (2.75, 0.5) lies in cell (2, 0) with station 1
	// there and station 3 in ring 1, both 0.5 km away; probe (3.5, 2.75)
	// is 0.25·√5 km from stations 4 and 5, which share its cell.
	tie := &Network{Stations: []BaseStation{
		{ID: 0, Loc: geo.Point{X: 0, Y: 0}},
		{ID: 1, Loc: geo.Point{X: 2.25, Y: 0.5}},
		{ID: 2, Loc: geo.Point{X: 1.25, Y: 0.5}},
		{ID: 3, Loc: geo.Point{X: 3.25, Y: 0.5}},
		{ID: 4, Loc: geo.Point{X: 3.25, Y: 2.25}},
		{ID: 5, Loc: geo.Point{X: 3.75, Y: 2.25}},
	}}
	tie.grid.build(tie.Stations, 1)
	for _, c := range []struct {
		p    geo.Point
		want BSID
	}{
		{geo.Point{X: 1.75, Y: 0.5}, 1}, // the lower id is in ring 1
		{geo.Point{X: 2.75, Y: 0.5}, 1}, // the lower id is in ring 0
		{geo.Point{X: 3.5, Y: 2.75}, 4}, // both in ring 0
		{geo.Point{X: -1, Y: -1}, 0},    // outside the grid
		{geo.Point{X: 3.75, Y: 0.5}, 3}, // no tie
	} {
		if got := tie.NearestStation(c.p); got != c.want {
			t.Errorf("p=%v: nearest %d, want %d", c.p, got, c.want)
		}
		check(tie, c.p)
	}
}

// TestNearestStationAllocatesNothing guards the query the generator
// makes at every route step: no candidate slice, no sort.
func TestNearestStationAllocatesNothing(t *testing.T) {
	n := testNetwork(t)
	p := geo.Point{X: 17.3, Y: 22.9}
	if a := testing.AllocsPerRun(100, func() { n.NearestStation(p) }); a != 0 {
		t.Fatalf("NearestStation allocates %.0f per query, want 0", a)
	}
}

// nearestSink keeps BenchmarkNearestStation's query from being
// optimised away.
var nearestSink BSID

// BenchmarkNearestStation is the cost of one nearest-station query on
// the generator's default network (a 60 km world, seed 1's sites) at
// uniformly random points of the world, in ns per query.
func BenchmarkNearestStation(b *testing.B) {
	n := Build(Config{World: geo.DefaultWorld(60)}, rand.New(rand.NewPCG(1, 0xAD10)))
	rng := rand.New(rand.NewPCG(3, 4))
	probes := make([]geo.Point, 4096)
	for i := range probes {
		probes[i] = geo.Point{
			X: n.World.Bounds.Min.X + rng.Float64()*n.World.Bounds.Width(),
			Y: n.World.Bounds.Min.Y + rng.Float64()*n.World.Bounds.Height(),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nearestSink = n.NearestStation(probes[i%len(probes)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
}
