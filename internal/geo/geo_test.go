package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Reference distances computed from the haversine formula with the mean
	// Earth radius; tolerances are generous since city coordinates are rough.
	cases := []struct {
		name string
		a, b Coord
		want float64 // km
		tol  float64
	}{
		{"nyc-london", Coord{40.7128, -74.0060}, Coord{51.5074, -0.1278}, 5570, 30},
		{"sf-tokyo", Coord{37.7749, -122.4194}, Coord{35.6762, 139.6503}, 8270, 40},
		{"sydney-perth", Coord{-33.8688, 151.2093}, Coord{-31.9523, 115.8613}, 3290, 30},
		{"same-point", Coord{12.34, 56.78}, Coord{12.34, 56.78}, 0, 0.001},
		{"equator-quarter", Coord{0, 0}, Coord{0, 90}, math.Pi / 2 * EarthRadiusKm, 1},
		{"pole-to-pole", Coord{90, 0}, Coord{-90, 0}, math.Pi * EarthRadiusKm, 1},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: DistanceKm = %.1f, want %.1f ± %.1f", c.name, got, c.want, c.tol)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(la1, lo1, la2, lo2 float64) bool {
		a := Coord{Lat: clampLat(la1), Lon: clampLon(lo1)}
		b := Coord{Lat: clampLat(la2), Lon: clampLon(lo2)}
		d1 := DistanceKm(a, b)
		d2 := DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceBounds(t *testing.T) {
	f := func(la1, lo1, la2, lo2 float64) bool {
		a := Coord{Lat: clampLat(la1), Lon: clampLon(lo1)}
		b := Coord{Lat: clampLat(la2), Lon: clampLon(lo2)}
		d := DistanceKm(a, b)
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	// Great-circle distance is a metric: geographic distances never violate
	// the triangle inequality (§5.2.1 — the point of contrast with RTTs).
	f := func(la1, lo1, la2, lo2, la3, lo3 float64) bool {
		a := Coord{Lat: clampLat(la1), Lon: clampLon(lo1)}
		b := Coord{Lat: clampLat(la2), Lon: clampLon(lo2)}
		c := Coord{Lat: clampLat(la3), Lon: clampLon(lo3)}
		return DistanceKm(a, b) <= DistanceKm(a, c)+DistanceKm(c, b)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampLat(v float64) float64 { return math.Mod(math.Abs(v), 180) - 90 }
func clampLon(v float64) float64 { return math.Mod(math.Abs(v), 360) - 180 }

func TestMinRTT(t *testing.T) {
	a := Coord{40.7128, -74.0060} // NYC
	b := Coord{51.5074, -0.1278}  // London
	rtt := MinRTTMs(a, b)
	// ~5570 km at 2/3 c ≈ 55.7 ms round trip.
	if rtt < 50 || rtt > 62 {
		t.Errorf("MinRTTMs(nyc, london) = %.2f, want ~56", rtt)
	}
	if MinRTTMsForDistance(0) != 0 {
		t.Error("zero distance should have zero minimum RTT")
	}
}

func TestCoordValid(t *testing.T) {
	valid := []Coord{{0, 0}, {90, 180}, {-90, -180}, {45.5, -122.6}}
	for _, c := range valid {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
	}
	invalid := []Coord{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}}
	for _, c := range invalid {
		if c.Valid() {
			t.Errorf("%v should be invalid", c)
		}
	}
}

func TestRegionsWeightsSumToOne(t *testing.T) {
	var sum float64
	for _, r := range Regions() {
		if r.Weight <= 0 {
			t.Errorf("region %s has non-positive weight", r.Name)
		}
		if !r.Center.Valid() {
			t.Errorf("region %s has invalid center", r.Name)
		}
		sum += r.Weight
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("region weights sum to %v, want 1.0", sum)
	}
}

func TestRegionsCoverPaperAreas(t *testing.T) {
	// §4.1 requires Asia, South America, Australia, and the Middle East to
	// be represented alongside the US/EU concentration.
	want := []string{"asia-east", "south-america", "australia", "middle-east"}
	have := map[string]bool{}
	for _, r := range Regions() {
		have[r.Name] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("region %s missing from catalogue", w)
		}
	}
}

func TestGeoDBLookupAndErrors(t *testing.T) {
	names := make([]string, 0, 200)
	coords := make([]Coord, 0, 200)
	for i := 0; i < 200; i++ {
		names = append(names, string(rune('a'+i%26))+string(rune('0'+i/26)))
		coords = append(coords, Coord{Lat: float64(i%90) - 45, Lon: float64(i*3%360) - 180})
	}
	db, err := NewGeoDB(names, coords, GeoDBConfig{ErrorFraction: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.entries) != 200 {
		t.Fatalf("%d entries, want 200", len(db.entries))
	}
	if len(db.erroneous) == 0 || len(db.erroneous) > 50 {
		t.Fatalf("ErrorCount = %d, want within (0, 50] for 10%% of 200", len(db.erroneous))
	}
	errsSeen := 0
	for i, n := range names {
		c, ok := db.Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%q) missing", n)
		}
		if !c.Valid() {
			t.Fatalf("Lookup(%q) returned invalid coordinate %v", n, c)
		}
		if db.Erroneous(n) {
			errsSeen++
			if DistanceKm(c, coords[i]) < 100 {
				t.Errorf("entry %q marked erroneous but barely displaced", n)
			}
		} else if c != coords[i] {
			t.Errorf("entry %q not marked erroneous but coordinate changed", n)
		}
	}
	if errsSeen != len(db.erroneous) {
		t.Errorf("saw %d erroneous entries, ErrorCount says %d", errsSeen, len(db.erroneous))
	}
}

func TestGeoDBDeterministic(t *testing.T) {
	names := []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}
	coords := make([]Coord, len(names))
	for i := range coords {
		coords[i] = Coord{Lat: float64(10 * i), Lon: float64(15 * i)}
	}
	cfg := GeoDBConfig{ErrorFraction: 0.5, Seed: 42}
	a, err := NewGeoDB(names, coords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGeoDB(names, coords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		ca, _ := a.Lookup(n)
		cb, _ := b.Lookup(n)
		if ca != cb {
			t.Errorf("lookup %q differs across identically-seeded DBs: %v vs %v", n, ca, cb)
		}
	}
}

func TestGeoDBRejectsMismatchedInput(t *testing.T) {
	if _, err := NewGeoDB([]string{"a"}, nil, GeoDBConfig{}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, err := NewGeoDB([]string{"a"}, []Coord{{Lat: 99}}, GeoDBConfig{}); err == nil {
		t.Error("expected error for invalid coordinate")
	}
}

func TestDisplaceStaysValid(t *testing.T) {
	f := func(la, lo float64, seed int64) bool {
		c := Coord{Lat: clampLat(la), Lon: clampLon(lo)}
		db, err := NewGeoDB([]string{"x"}, []Coord{c}, GeoDBConfig{ErrorFraction: 1, Seed: seed})
		if err != nil {
			return false
		}
		got, ok := db.Lookup("x")
		return ok && got.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
