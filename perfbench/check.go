package main

import (
	"fmt"
	"math"
	"sort"
)

// The checkers below are computed apart from the program: brute-force
// scans, the benchmark's own orientation and plane tests, its own
// union-find and its own Prim. None of them calls into pargeo. Each
// returns nil when the answer has the property and an error naming the
// first violation otherwise.

// sqDist is the squared Euclidean distance, summed in coordinate order.
func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// at returns row i of a row-major coordinate slice of dimension dim.
func at(data []float64, dim, i int) []float64 { return data[i*dim : (i+1)*dim] }

// bruteKNN returns the k smallest squared distances from q to the rows
// of data, ascending.
func bruteKNN(data []float64, dim int, q []float64, k int) []float64 {
	best := make([]float64, 0, k+1)
	for i := 0; i*dim < len(data); i++ {
		d := sqDist(at(data, dim, i), q)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		j := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[j+1:], best[j:])
		best[j] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// checkKNN checks one k-NN answer: the ids must be distinct, known
// (coords returns ok), and their squared distances from q, in the order
// returned, must equal the brute-force k smallest exactly. Ties are
// therefore allowed to resolve either way: only the distances are pinned.
func checkKNN(q []float64, ids []int32, coords func(id int32) ([]float64, bool), want []float64) error {
	if len(ids) != len(want) {
		return fmt.Errorf("k-NN at %v: %d ids, want %d", q, len(ids), len(want))
	}
	seen := make(map[int32]bool, len(ids))
	for i, id := range ids {
		c, ok := coords(id)
		if !ok {
			return fmt.Errorf("k-NN at %v: id %d is not live", q, id)
		}
		if seen[id] {
			return fmt.Errorf("k-NN at %v: id %d returned twice", q, id)
		}
		seen[id] = true
		if d := sqDist(c, q); d != want[i] {
			return fmt.Errorf("k-NN at %v: rank %d id %d at sq distance %g, want %g", q, i, id, d, want[i])
		}
	}
	return nil
}

// tolerance returns the absolute slack for orientation tests on data of
// the given coordinate scale: 1e-12 of the scale, far below the gap a
// dropped hull vertex or a missed point leaves on the inputs used here.
func tolerance(scale float64) float64 { return 1e-12 * scale }

// coordScale is the largest absolute coordinate of data (at least 1e-300).
func coordScale(data []float64) float64 {
	s := 1e-300
	for _, v := range data {
		s = math.Max(s, math.Abs(v))
	}
	return s
}

// cross2 is (b−a)×(c−a): positive when a, b, c turn counterclockwise.
func cross2(a, b, c []float64) float64 {
	return (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
}

// outsideEdge2 reports whether c lies to the right of the directed edge
// a→b by more than tol (distance units).
func outsideEdge2(a, b, c []float64, tol float64) bool {
	return cross2(a, b, c) < -tol*math.Sqrt(sqDist(a, b))
}

// checkHull2D checks a 2D hull given as point indices in counterclockwise
// order: at least three distinct vertices, every turn left or straight
// (convex), and every input point inside or on the polygon. Containment
// uses a binary search over the fan from vertex 0, O(log h) per point.
func checkHull2D(pts []float64, hull []int32) error {
	h := len(hull)
	if h < 3 {
		return fmt.Errorf("2D hull has %d vertices", h)
	}
	tol := tolerance(coordScale(pts))
	v := func(i int) []float64 { return at(pts, 2, int(hull[i%h])) }
	seen := make(map[int32]bool, h)
	for i := 0; i < h; i++ {
		if seen[hull[i]] {
			return fmt.Errorf("2D hull repeats vertex %d", hull[i])
		}
		seen[hull[i]] = true
		if outsideEdge2(v(i), v(i+1), v(i+2), tol) {
			return fmt.Errorf("2D hull turns right at vertex %d (position %d)", hull[(i+1)%h], (i+1)%h)
		}
	}
	// Left turns alone allow a polygon that winds twice; a simple convex
	// one turns through exactly one full circle.
	turn := 0.0
	for i := 0; i < h; i++ {
		a, b, c := v(i), v(i+1), v(i+2)
		e1x, e1y, e2x, e2y := b[0]-a[0], b[1]-a[1], c[0]-b[0], c[1]-b[1]
		turn += math.Atan2(e1x*e2y-e1y*e2x, e1x*e2x+e1y*e2y)
	}
	if math.Abs(turn-2*math.Pi) > 1e-6 {
		return fmt.Errorf("2D hull turns through %g rad, want 2π", turn)
	}
	o := v(0)
	for p := 0; p*2 < len(pts); p++ {
		c := at(pts, 2, p)
		// Find the fan wedge (v0, v[lo], v[lo+1]) holding c.
		if outsideEdge2(o, v(1), c, tol) || outsideEdge2(v(h-1), o, c, tol) {
			return fmt.Errorf("point %d %v outside the 2D hull near vertex 0", p, c)
		}
		lo, hi := 1, h-1
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if cross2(o, v(mid), c) >= 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		if outsideEdge2(v(lo), v(hi), c, tol) {
			return fmt.Errorf("point %d %v outside 2D hull edge %d→%d", p, c, hull[lo], hull[hi])
		}
	}
	return nil
}

// checkHull3D checks a triangulated 3D hull whose facets list their
// vertices counterclockwise seen from outside: every undirected edge
// borders exactly two facets, traversed once in each direction (a closed,
// consistently oriented surface), and every input point lies on or below
// every facet plane.
func checkHull3D(pts []float64, facets [][3]int32) error {
	if len(facets) < 4 {
		return fmt.Errorf("3D hull has %d facets", len(facets))
	}
	type edge struct{ u, w int32 }
	directed := make(map[edge]int, 3*len(facets))
	for fi, f := range facets {
		for e := 0; e < 3; e++ {
			u, w := f[e], f[(e+1)%3]
			if u == w {
				return fmt.Errorf("facet %d is degenerate", fi)
			}
			directed[edge{u, w}]++
		}
	}
	for e, n := range directed {
		if n != 1 || directed[edge{e.w, e.u}] != 1 {
			return fmt.Errorf("edge %d→%d borders %d facets one way and %d the other", e.u, e.w, n, directed[edge{e.w, e.u}])
		}
	}
	tol := tolerance(coordScale(pts))
	n := len(pts) / 3
	for fi, f := range facets {
		a, b, c := at(pts, 3, int(f[0])), at(pts, 3, int(f[1])), at(pts, 3, int(f[2]))
		nx := (b[1]-a[1])*(c[2]-a[2]) - (b[2]-a[2])*(c[1]-a[1])
		ny := (b[2]-a[2])*(c[0]-a[0]) - (b[0]-a[0])*(c[2]-a[2])
		nz := (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
		limit := tol * math.Sqrt(nx*nx+ny*ny+nz*nz)
		for p := 0; p < n; p++ {
			q := at(pts, 3, p)
			if nx*(q[0]-a[0])+ny*(q[1]-a[1])+nz*(q[2]-a[2]) > limit {
				return fmt.Errorf("point %d %v above facet %d", p, q, fi)
			}
		}
	}
	return nil
}

// checkBall checks that every point lies inside the ball of squared
// radius sqR about center, with the radius stretched by 1+1e-9.
func checkBall(pts []float64, dim int, center []float64, sqR float64) error {
	limit := sqR * (1 + 1e-9) * (1 + 1e-9)
	for p := 0; p*dim < len(pts); p++ {
		if d := sqDist(at(pts, dim, p), center); d > limit {
			return fmt.Errorf("point %d outside the ball: sq distance %g > sq radius %g", p, d, sqR)
		}
	}
	return nil
}

// relClose reports whether a and b agree to rel relative error.
func relClose(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// unionFind is a plain path-halving union-find over 0..n−1.
type unionFind []int32

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

func (u unionFind) find(x int32) int32 {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u unionFind) union(a, b int32) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u[ra] = rb
	return true
}

// checkSpanningTree checks that edges form a spanning tree of n points:
// exactly n−1 edges, each joining two different components.
func checkSpanningTree(n int, edges [][2]int32) error {
	if len(edges) != n-1 {
		return fmt.Errorf("spanning tree has %d edges, want %d", len(edges), n-1)
	}
	uf := newUnionFind(n)
	for i, e := range edges {
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= n || int(e[1]) >= n {
			return fmt.Errorf("edge %d %v out of range", i, e)
		}
		if !uf.union(e[0], e[1]) {
			return fmt.Errorf("edge %d %v closes a cycle", i, e)
		}
	}
	return nil
}

// primWeight is the total Euclidean length of the minimum spanning tree
// of the complete graph on pts, by Prim's O(n²) algorithm.
func primWeight(pts []float64, dim int) float64 {
	n := len(pts) / dim
	if n < 2 {
		return 0
	}
	best := make([]float64, n)
	done := make([]bool, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	best[0] = 0
	total := 0.0
	for range n {
		u := -1
		for j := range n {
			if !done[j] && (u < 0 || best[j] < best[u]) {
				u = j
			}
		}
		done[u] = true
		total += math.Sqrt(best[u])
		pu := at(pts, dim, u)
		for j := range n {
			if !done[j] {
				if d := sqDist(pu, at(pts, dim, j)); d < best[j] {
					best[j] = d
				}
			}
		}
	}
	return total
}

// edgeWeight is the total Euclidean length of edges over pts.
func edgeWeight(pts []float64, dim int, edges [][2]int32) float64 {
	s := 0.0
	for _, e := range edges {
		s += math.Sqrt(sqDist(at(pts, dim, int(e[0])), at(pts, dim, int(e[1]))))
	}
	return s
}
