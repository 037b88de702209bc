package main

import (
	"math"
	"slices"
	"testing"
)

// Each checker must accept a correct answer and reject a deliberately
// corrupted one. The answers come from brute force, so these tests do
// not depend on the program under test.

func circlePoints(n int) []float64 {
	pts := make([]float64, 0, 2*n)
	for i := range n {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts = append(pts, math.Cos(a), math.Sin(a))
	}
	return pts
}

func TestCheckHull2DRejectsDroppedVertex(t *testing.T) {
	const n = 1000
	pts := circlePoints(n)
	// Add interior points; the hull is the circle points in order.
	pts = append(pts, 0, 0, 0.5, -0.25, -0.7, 0.1)
	hull := make([]int32, n)
	for i := range hull {
		hull[i] = int32(i)
	}
	if err := checkHull2D(pts, hull); err != nil {
		t.Fatalf("correct hull rejected: %v", err)
	}
	dropped := slices.Delete(slices.Clone(hull), 500, 501)
	if checkHull2D(pts, dropped) == nil {
		t.Fatal("hull with a dropped vertex accepted")
	}
	reversed := slices.Clone(hull)
	slices.Reverse(reversed)
	if checkHull2D(pts, reversed) == nil {
		t.Fatal("clockwise hull accepted")
	}
	twice := append(slices.Clone(hull), hull...)
	if checkHull2D(pts, twice) == nil {
		t.Fatal("hull winding twice accepted")
	}
}

// cube is the unit cube's corners with its 12 outward-oriented triangles.
func cube() ([]float64, [][3]int32) {
	var pts []float64
	for i := range 8 {
		pts = append(pts, float64(i&1), float64(i>>1&1), float64(i>>2&1))
	}
	facets := [][3]int32{
		{0, 2, 3}, {0, 3, 1}, // z = 0
		{4, 5, 7}, {4, 7, 6}, // z = 1
		{0, 1, 5}, {0, 5, 4}, // y = 0
		{2, 6, 7}, {2, 7, 3}, // y = 1
		{0, 4, 6}, {0, 6, 2}, // x = 0
		{1, 3, 7}, {1, 7, 5}, // x = 1
	}
	return pts, facets
}

func TestCheckHull3D(t *testing.T) {
	pts, facets := cube()
	pts = append(pts, 0.5, 0.5, 0.5)
	if err := checkHull3D(pts, facets); err != nil {
		t.Fatalf("correct hull rejected: %v", err)
	}
	if checkHull3D(pts, facets[1:]) == nil {
		t.Fatal("open surface accepted")
	}
	outside := append(slices.Clone(pts), 0.5, 0.5, 1+1e-6)
	if checkHull3D(outside, facets) == nil {
		t.Fatal("point above a facet accepted")
	}
	flipped := slices.Clone(facets)
	for i := range flipped {
		flipped[i][1], flipped[i][2] = flipped[i][2], flipped[i][1]
	}
	if checkHull3D(pts, flipped) == nil {
		t.Fatal("inward-oriented hull accepted")
	}
}

func TestCheckBallRejectsShrunkBall(t *testing.T) {
	pts := circlePoints(64) // the unit circle: SEB is centered at 0, radius 1
	center := []float64{0, 0}
	if err := checkBall(pts, 2, center, 1); err != nil {
		t.Fatalf("correct ball rejected: %v", err)
	}
	r := 1 - 1e-6
	if checkBall(pts, 2, center, r*r) == nil {
		t.Fatal("ball shrunk by 1e-6 accepted")
	}
}

func TestCheckKNNRejectsSwappedID(t *testing.T) {
	r := rng(1, 1)
	data := uniformPoints(r, 500, 3).Data
	q := []float64{0.5, 0.5, 0.5}
	want := bruteKNN(data, 3, q, 5)
	// The right answer, found by sorting every distance.
	idx := make([]int32, 500)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		return int(math.Copysign(1, sqDist(at(data, 3, int(a)), q)-sqDist(at(data, 3, int(b)), q)))
	})
	coords := func(id int32) ([]float64, bool) { return at(data, 3, int(id)), id >= 0 && id < 500 }
	ids := slices.Clone(idx[:5])
	if err := checkKNN(q, ids, coords, want); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	swapped := slices.Clone(ids)
	swapped[4] = idx[5]
	if checkKNN(q, swapped, coords, want) == nil {
		t.Fatal("answer with a swapped id accepted")
	}
	dup := slices.Clone(ids)
	dup[4] = dup[3]
	if checkKNN(q, dup, coords, want) == nil {
		t.Fatal("answer with a repeated id accepted")
	}
}

func TestCheckKNNAllowsTies(t *testing.T) {
	data := []float64{1, 0, -1, 0, 0, 1, 5, 5} // three points at distance 1 from the origin
	q := []float64{0, 0}
	want := bruteKNN(data, 2, q, 2)
	coords := func(id int32) ([]float64, bool) { return at(data, 2, int(id)), true }
	for _, ids := range [][]int32{{0, 1}, {2, 0}, {1, 2}} {
		if err := checkKNN(q, ids, coords, want); err != nil {
			t.Fatalf("tied answer %v rejected: %v", ids, err)
		}
	}
}

func TestCheckSpanningTreeAndPrim(t *testing.T) {
	// Four points on a line: the EMST is the three unit gaps.
	pts := []float64{0, 0, 1, 0, 2, 0, 3, 0}
	if w := primWeight(pts, 2); w != 3 {
		t.Fatalf("Prim weight %g, want 3", w)
	}
	good := [][2]int32{{0, 1}, {1, 2}, {2, 3}}
	if err := checkSpanningTree(4, good); err != nil {
		t.Fatalf("spanning tree rejected: %v", err)
	}
	if checkSpanningTree(4, [][2]int32{{0, 1}, {1, 0}, {2, 3}}) == nil {
		t.Fatal("edge set with a cycle accepted")
	}
	if checkSpanningTree(4, good[:2]) == nil {
		t.Fatal("forest accepted")
	}
}

// TestMissingAckedRejectsLostInsert feeds the durability check the
// answers of a server that lost an acked insert.
func TestMissingAckedRejectsLostInsert(t *testing.T) {
	m := &model{pts: []livePoint{{id: 7, c: [2]float64{0.1, 0.1}}, {id: 9, c: [2]float64{0.9, 0.9}}, {id: 4, c: [2]float64{0.5, 0.2}}}}
	nearest := func(server []livePoint) [][]int32 {
		var out [][]int32
		for _, p := range m.pts {
			best, bid := math.Inf(1), int32(-1)
			for _, s := range server {
				if d := sqDist(s.c[:], p.c[:]); d < best {
					best, bid = d, s.id
				}
			}
			out = append(out, []int32{bid})
		}
		return out
	}
	idx := []int{0, 1, 2}
	if err := missingAcked(m, idx, nearest(m.pts)); err != nil {
		t.Fatalf("complete server rejected: %v", err)
	}
	lost := []livePoint{m.pts[0], m.pts[2]} // the insert of id 9 was lost
	if missingAcked(m, idx, nearest(lost)) == nil {
		t.Fatal("server missing an acked insert accepted")
	}
}
