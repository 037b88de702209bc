package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"

	"pargeo/internal/bdltree"
	"pargeo/internal/core"
	"pargeo/internal/emst"
	"pargeo/internal/geom"
	"pargeo/internal/hull2d"
	"pargeo/internal/hull3d"
	"pargeo/internal/kdtree"
	"pargeo/internal/kernel"
	"pargeo/internal/morton"
	"pargeo/internal/seb"
	"pargeo/internal/wspd"
)

// paper-batch input sizes. The 2D hull input is small because every
// on-circle point is a hull vertex, the worst case of both 2D hull
// algorithms (see README.md).
const (
	circleN    = 8000   // 2D, on the unit circle
	ball3N     = 80000  // 3D, uniform in the unit ball
	sebParts   = 16     // SEB instances per pass: their sum averages out each one's random work
	sebPartN   = 25000  // 5D points per SEB instance, uniform in the unit cube
	kd5N       = 60000  // 5D, uniform in the unit cube
	bdl5N      = 100000 // 5D, uniform; inserted in bdlBatches batches
	bdlBatches = 10
	bdlDeleted = 5     // batches deleted again after the inserts
	bdlQN      = 20000 // 5D k-NN queries against the BDL-tree
	emstN      = 30000 // 2D, uniform in the unit square
	primN      = 3000  // 2D EMST input small enough for the O(n²) Prim check
	paperK     = 8     // k of the kd-tree AllKNN and BDL k-NN
	sampleRows = 200   // k-NN rows checked by brute force per check
)

// rng returns the generator of input stream `stream` for seed.
func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

func uniformPoints(r *rand.Rand, n, dim int) geom.Points {
	p := geom.NewPoints(n, dim)
	for i := range p.Data {
		p.Data[i] = r.Float64()
	}
	return p
}

func onCircle(r *rand.Rand, n int) geom.Points {
	p := geom.NewPoints(n, 2)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * r.Float64()
		p.Data[2*i], p.Data[2*i+1] = math.Cos(a), math.Sin(a)
	}
	return p
}

func inBall(r *rand.Rand, n, dim int) geom.Points {
	p := geom.NewPoints(n, dim)
	for i := 0; i < n; {
		row, sq := p.At(i), 0.0
		for c := range row {
			row[c] = 2*r.Float64() - 1
			sq += row[c] * row[c]
		}
		if sq <= 1 {
			i++
		}
	}
	return p
}

// paperInputs are the fixed inputs of one paper-batch run.
type paperInputs struct {
	circle, ball3, kd5, bdl5, bdlQ, emst2, prim2 geom.Points
	seb5                                         []geom.Points
	rows                                         []int // sampled query rows for k-NN checks
}

func makePaperInputs(seed uint64) *paperInputs {
	r := rng(seed, 99)
	in := &paperInputs{
		circle: onCircle(rng(seed, 1), circleN),
		ball3:  inBall(rng(seed, 2), ball3N, 3),
		kd5:    uniformPoints(rng(seed, 4), kd5N, 5),
		bdl5:   uniformPoints(rng(seed, 5), bdl5N, 5),
		bdlQ:   uniformPoints(rng(seed, 6), bdlQN, 5),
		emst2:  uniformPoints(rng(seed, 7), emstN, 2),
		prim2:  uniformPoints(rng(seed, 8), primN, 2),
	}
	for i := range sebParts {
		in.seb5 = append(in.seb5, uniformPoints(rng(seed, 300+uint64(i)), sebPartN, 5))
	}
	for range sampleRows {
		in.rows = append(in.rows, r.IntN(min(kd5N, bdlQN)))
	}
	return in
}

// paperState holds the outputs of the latest pass of each family, and
// the first pass's outputs that later passes must reproduce.
type paperState struct {
	in       *paperInputs
	seed     uint64
	st2, st3 core.Stats

	hull2RI, hull2DC          []int32
	hull3QH, hull3RI, hull3DC [][3]int32
	ballS, ballW              [sebParts]seb.Ball
	scanFrac                  float64 // mean over the SEB instances
	kd                        *kdtree.Tree
	knnIDs                    []int32
	knnDists                  []float64
	bdl                       *bdltree.Tree
	bdlIDs                    []int32 // ids of bdl5 rows, in row order
	bdlKNN                    [][]int32
	mst                       []emst.Edge

	checked    map[string]bool // families whose first full check ran
	firstHull2 []int32
	firstHull3 [][3]int32
	welzlSqR   [sebParts]float64 // sequential Welzl baseline radii²
	firstDists []float64
	firstMST   float64
}

// algo is one timed call into an algorithm package; its name is the
// layer span name.
type algo struct {
	name string
	run  func(s *paperState)
}

// family is one group of paper calls, run back to back and timed as one
// family pass; a paper-batch pass is one family pass of each family.
type family struct {
	name  string
	algos []algo
	check func(b *bench, s *paperState)
}

var families = []family{
	{"hull", []algo{
		{"hull2d.randinc", func(s *paperState) {
			s.st2 = core.Stats{}
			s.hull2RI = hull2d.RandIncStats(s.in.circle, s.seed, &s.st2)
		}},
		{"hull2d.dc", func(s *paperState) { s.hull2DC = hull2d.DivideConquer(s.in.circle) }},
		{"hull3d.quickhull", func(s *paperState) { s.hull3QH = hull3d.QuickhullStats(s.in.ball3, nil) }},
		{"hull3d.randinc", func(s *paperState) { s.st3 = core.Stats{}; s.hull3RI = hull3d.RandIncStats(s.in.ball3, s.seed, &s.st3) }},
		{"hull3d.dc", func(s *paperState) { s.hull3DC = hull3d.DivideConquer(s.in.ball3) }},
	}, checkHulls},
	{"seb", []algo{
		{"seb.sampling", func(s *paperState) {
			s.scanFrac = 0
			for i, pts := range s.in.seb5 {
				var f float64
				s.ballS[i], f = seb.SamplingStats(pts, s.seed+uint64(i))
				s.scanFrac += f / sebParts
			}
		}},
		{"seb.welzl", func(s *paperState) {
			for i, pts := range s.in.seb5 {
				s.ballW[i] = seb.Welzl(pts, s.seed+uint64(i), seb.Heuristics{MTF: true, Pivot: true})
			}
		}},
	}, checkSEB},
	{"kdtree", []algo{
		{"kdtree.build", func(s *paperState) { s.kd = kdtree.Build(s.in.kd5, kdtree.Options{}) }},
		{"kdtree.allknn", func(s *paperState) { s.knnIDs = s.kd.AllKNN(paperK, s.knnDists) }},
	}, checkKDTree},
	{"bdl_update", []algo{
		{"bdltree.insert", func(s *paperState) {
			s.bdl = bdltree.New(5, bdltree.Options{})
			s.bdlIDs = s.bdlIDs[:0]
			b := bdl5N / bdlBatches
			for i := range bdlBatches {
				s.bdlIDs = append(s.bdlIDs, s.bdl.Insert(s.in.bdl5.Slice(i*b, (i+1)*b))...)
			}
		}},
		{"bdltree.delete", func(s *paperState) {
			b := bdl5N / bdlBatches
			for i := range bdlDeleted {
				s.bdl.Delete(s.in.bdl5.Slice(i*b, (i+1)*b))
			}
		}},
	}, checkBDLSize},
	{"bdl_knn", []algo{
		{"bdltree.knn", func(s *paperState) { s.bdlKNN = s.bdl.KNN(s.in.bdlQ, paperK, nil) }},
	}, checkBDLKNN},
	{"emst", []algo{
		{"emst", func(s *paperState) { s.mst = emst.Compute(s.in.emst2) }},
	}, checkEMST},
}

func newPaperState(in *paperInputs, seed uint64) *paperState {
	return &paperState{in: in, seed: seed, knnDists: make([]float64, kd5N*paperK), checked: map[string]bool{}}
}

// runFamily runs one pass of f and returns its wall time, the CPU time
// this process used meanwhile and the host's CPU share stolen meanwhile.
// With spans non-nil, the pass and each call are recorded as spans
// (suffix names the thread count).
func runFamily(f family, s *paperState, spans *spanLog, suffix string) (wall time.Duration, cpu, stolen float64) {
	runtime.GC()
	steal := startSteal()
	cpu0 := selfCPU()
	type rec struct {
		name       string
		start, end time.Time
	}
	var recs [8]rec
	start := time.Now()
	for i, a := range f.algos {
		t := time.Now()
		a.run(s)
		recs[i] = rec{a.name, t, time.Now()}
	}
	end := time.Now()
	cpu, stolen = selfCPU()-cpu0, steal.share()
	if spans != nil {
		parent := spans.add("family."+f.name+suffix, 0, 0, start, end)
		for _, r := range recs[:len(f.algos)] {
			spans.add(r.name+suffix, parent, 0, r.start, r.end)
		}
	}
	return end.Sub(start), cpu, stolen
}

// familyTimes are the wall and CPU times, in seconds, of one family's
// passes.
type familyTimes struct{ wall, cpu []float64 }

// paperRounds runs whole rounds over every family until the deadline
// (at least minRounds), checking every pass outside the timed regions,
// and returns each family's pass times from the passes the hypervisor
// disturbed least (see calmest).
func (b *bench) paperRounds(s *paperState, deadline time.Time, minRounds int, spans *spanLog, suffix string) map[string]familyTimes {
	times, steal := map[string]familyTimes{}, map[string][]float64{}
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		for _, f := range families {
			d, cpu, stolen := runFamily(f, s, spans, suffix)
			t := times[f.name]
			times[f.name] = familyTimes{append(t.wall, d.Seconds()), append(t.cpu, cpu)}
			steal[f.name] = append(steal[f.name], stolen)
			b.res.Attempted += int64(len(f.algos))
			f.check(b, s)
		}
	}
	kept := map[string]familyTimes{}
	for name, t := range times {
		var k familyTimes
		for _, i := range calmest(steal[name]) {
			k.wall, k.cpu = append(k.wall, t.wall[i]), append(k.cpu, t.cpu[i])
		}
		kept[name] = k
	}
	return kept
}

// paperSetup generates the inputs several times and reports the median
// generation time as setup_s.
func (b *bench) paperSetup() *paperInputs {
	var in *paperInputs
	var times []float64
	for range setups {
		runtime.GC()
		t := time.Now()
		in = makePaperInputs(b.seed)
		times = append(times, time.Since(t).Seconds())
	}
	b.set("setup_s", "s", median(times))
	return in
}

func (b *bench) paperBatch() error {
	s := newPaperState(b.paperSetup(), b.seed)
	b.paperRounds(s, time.Time{}, 1, nil, "") // warm-up: caches, pools, lazy set-up
	times := b.paperRounds(s, time.Now().Add(time.Duration(b.seconds*float64(time.Second))), 3, nil, "")
	// A pass is one family pass of each family: its time is the sum of
	// the families' medians, so a burst of steal during one family pass
	// does not leak into another family's figure.
	var pass, cpu float64
	for _, f := range families {
		w, c := median(times[f.name].wall), median(times[f.name].cpu)
		fmt.Fprintf(os.Stderr, "perfbench: %-10s wall %.4f s, cpu %.4f s (median of %d calm passes)\n", f.name, w, c, len(times[f.name].wall))
		pass, cpu = pass+w, cpu+c
	}
	b.set("pass_s", "s", pass)
	b.set("pass_cpu_s", "s", cpu)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	b.set("rss_peak_mb", "MB", rss)
	return nil
}

// --- checks ---------------------------------------------------------------

// canonicalFacets rotates each facet to lead with its smallest id and sorts
// the facets, so equal hulls compare equal.
func canonicalFacets(f [][3]int32) [][3]int32 {
	out := make([][3]int32, len(f))
	for i, t := range f {
		for t[0] > t[1] || t[0] > t[2] {
			t = [3]int32{t[1], t[2], t[0]}
		}
		out[i] = t
	}
	slices.SortFunc(out, func(a, b [3]int32) int {
		for i := range a {
			if a[i] != b[i] {
				return int(a[i] - b[i])
			}
		}
		return 0
	})
	return out
}

// checkHulls checks the first pass fully and then requires every pass of
// every algorithm to give the same canonical hull: the hull of points in
// general position is unique, so any difference is an error.
func checkHulls(b *bench, s *paperState) {
	if !s.checked["hull"] {
		s.checked["hull"] = true
		b.check("hull2d.RandInc", checkHull2D(s.in.circle.Data, s.hull2RI))
		b.check("hull3d.Quickhull", checkHull3D(s.in.ball3.Data, s.hull3QH))
		s.firstHull2 = s.hull2RI
		s.firstHull3 = canonicalFacets(s.hull3QH)
	}
	if !slices.Equal(s.hull2RI, s.firstHull2) || !slices.Equal(s.hull2DC, s.firstHull2) {
		b.wrong("2D hulls differ: RandInc %d, DivideConquer %d, checked %d vertices", len(s.hull2RI), len(s.hull2DC), len(s.firstHull2))
	}
	for name, f := range map[string][][3]int32{"Quickhull": s.hull3QH, "RandInc": s.hull3RI, "DivideConquer": s.hull3DC} {
		if !slices.Equal(canonicalFacets(f), s.firstHull3) {
			b.wrong("3D hull of %s differs from the checked hull (%d vs %d facets)", name, len(f), len(s.firstHull3))
		}
	}
}

func checkSEB(b *bench, s *paperState) {
	for i, pts := range s.in.seb5 {
		if !s.checked["seb"] {
			s.welzlSqR[i] = seb.WelzlSequential(pts, s.seed, seb.Heuristics{}).SqRadius
		}
		for name, ball := range map[string]seb.Ball{"Sampling": s.ballS[i], "Welzl": s.ballW[i]} {
			b.check(fmt.Sprintf("seb.%s instance %d", name, i), checkBall(pts.Data, 5, ball.Center[:5], ball.SqRadius))
			if !relClose(math.Sqrt(ball.SqRadius), math.Sqrt(s.welzlSqR[i]), 1e-9) {
				b.wrong("seb.%s instance %d radius %.17g, sequential Welzl %.17g", name, i, math.Sqrt(ball.SqRadius), math.Sqrt(s.welzlSqR[i]))
			}
		}
	}
	s.checked["seb"] = true
}

func checkKDTree(b *bench, s *paperState) {
	data := s.in.kd5.Data
	coords := func(id int32) ([]float64, bool) {
		return at(data, 5, int(id)), id >= 0 && int(id) < kd5N
	}
	if !s.checked["kdtree"] {
		s.checked["kdtree"] = true
		for _, row := range s.in.rows {
			want := bruteKNNSkip(data, 5, row, paperK)
			b.check(fmt.Sprintf("kdtree.AllKNN row %d", row), checkKNN(at(data, 5, row), s.knnIDs[row*paperK:(row+1)*paperK], coords, want))
		}
		s.firstDists = slices.Clone(s.knnDists)
	}
	if !slices.Equal(s.knnDists, s.firstDists) {
		b.wrong("kdtree.AllKNN distances differ from the checked pass")
	}
}

// bruteKNNSkip is bruteKNN from row skip of data to the other rows.
func bruteKNNSkip(data []float64, dim, skip, k int) []float64 {
	q := at(data, dim, skip)
	all := bruteKNN(data, dim, q, k+1)
	return all[1:] // the first is the row itself, at distance 0 (inputs are distinct)
}

func checkBDLSize(b *bench, s *paperState) {
	if want := bdl5N / bdlBatches * (bdlBatches - bdlDeleted); s.bdl.Size() != want {
		b.wrong("BDL-tree size %d after deletes, want %d", s.bdl.Size(), want)
	}
}

func checkBDLKNN(b *bench, s *paperState) {
	live := s.in.bdl5.Data[bdl5N/bdlBatches*bdlDeleted*5:]
	row := map[int32]int{}
	for i, id := range s.bdlIDs {
		row[id] = i
	}
	firstLive := bdl5N / bdlBatches * bdlDeleted
	coords := func(id int32) ([]float64, bool) {
		r, ok := row[id]
		if !ok || r < firstLive {
			return nil, false
		}
		return at(s.in.bdl5.Data, 5, r), true
	}
	for _, qi := range s.in.rows[:sampleRows/4] {
		q := at(s.in.bdlQ.Data, 5, qi)
		b.check(fmt.Sprintf("bdltree.KNN query %d", qi), checkKNN(q, s.bdlKNN[qi], coords, bruteKNN(live, 5, q, paperK)))
	}
}

func edgePairs(es []emst.Edge) [][2]int32 {
	out := make([][2]int32, len(es))
	for i, e := range es {
		out[i] = [2]int32{e.U, e.V}
	}
	return out
}

func checkEMST(b *bench, s *paperState) {
	pairs := edgePairs(s.mst)
	b.check("emst spanning tree", checkSpanningTree(emstN, pairs))
	w := edgeWeight(s.in.emst2.Data, 2, pairs)
	if !s.checked["emst"] {
		s.checked["emst"] = true
		s.firstMST = w
		small := edgePairs(emst.Compute(s.in.prim2))
		b.check("emst spanning tree (Prim input)", checkSpanningTree(primN, small))
		if got, want := edgeWeight(s.in.prim2.Data, 2, small), primWeight(s.in.prim2.Data, 2); !relClose(got, want, 1e-9) {
			b.wrong("emst weight %.17g, Prim %.17g", got, want)
		}
	}
	if !relClose(w, s.firstMST, 1e-12) {
		b.wrong("emst weight %.17g differs from the checked pass %.17g", w, s.firstMST)
	}
}

// --- traced peel ------------------------------------------------------------

// paperPeel is the traced run of paper-batch: untraced rounds give the
// end-to-end medians, then traced rounds at GOMAXPROCS=1 and at the
// default record every call under its family span. It sets the paper
// layers' per-layer metrics and prints each family's breakdown.
func (b *bench) paperPeel(in *paperInputs, rounds int) {
	nproc := runtime.GOMAXPROCS(0)
	s := newPaperState(in, b.seed)
	b.paperRounds(s, time.Time{}, 1, nil, "")
	plain := b.paperRounds(s, time.Time{}, rounds, nil, "")
	runtime.GOMAXPROCS(1)
	b.paperRounds(s, time.Time{}, 1, &b.spans, "@1")
	runtime.GOMAXPROCS(nproc)
	suffix := fmt.Sprintf("@%d", nproc)
	b.paperRounds(s, time.Time{}, rounds, &b.spans, suffix)

	for _, a := range []string{"hull2d.randinc", "hull2d.dc", "hull3d.quickhull", "hull3d.randinc", "hull3d.dc",
		"seb.sampling", "seb.welzl", "kdtree.build", "kdtree.allknn", "bdltree.insert", "bdltree.delete", "bdltree.knn"} {
		b.set(a+"_s", "s", b.spans.p50(a+suffix))
	}
	b.set("hull2d.reservation_success_ratio", "ratio", float64(s.st2.Successes)/float64(s.st2.Reservations))
	b.set("hull3d.reservation_success_ratio", "ratio", float64(s.st3.Successes)/float64(s.st3.Reservations))
	b.set("seb.sample_scan_frac", "ratio", s.scanFrac)
	b.set("emst.s", "s", b.spans.p50("emst"+suffix))
	for _, f := range families {
		one, all := b.spans.p50("family."+f.name+"@1"), b.spans.p50("family."+f.name+suffix)
		b.set("parlay.speedup."+f.name, "x", one/all)
		e2e := median(plain[f.name].wall)
		var rows [][2]any
		sum := 0.0
		for _, a := range f.algos {
			v := b.spans.p50(a.name + suffix)
			rows = append(rows, [2]any{a.name, v})
			sum += v
		}
		rows = append(rows, [2]any{"residual", e2e - sum})
		table(fmt.Sprintf("family %s: layer self times at GOMAXPROCS=%d", f.name, nproc), "s", e2e, rows)
		fmt.Printf("  tracing overhead: %+.4g s (traced %.4g − untraced %.4g); speedup T1/T%d = %.3g\n",
			all-e2e, all, e2e, nproc, one/all)
	}

	// Layers with no family of their own, each timed on its own call.
	t := time.Now()
	morton.Sort(in.bdl5)
	b.set("morton.sort_s", "s", time.Since(t).Seconds())
	b.spans.add("morton.sort", 0, 0, t, time.Now())
	tree := kdtree.Build(in.emst2, kdtree.Options{Split: kdtree.ObjectMedian, LeafSize: 1})
	t = time.Now()
	pairs := wspd.Compute(tree, 2)
	b.spans.add("wspd.compute", 0, 0, t, time.Now())
	b.set("wspd.s", "s", time.Since(t).Seconds())
	b.set("wspd.pairs", "count", float64(len(pairs)))
	b.kernelPeel(in.kd5)
}

// kernelPeel times the leaf scan kernels on leaf-sized, dimension-major
// float32 slabs cut from a paper input.
func (b *bench) kernelPeel(pts geom.Points) {
	const leaf, calls = 32, 20000
	dim := pts.Dim
	nslab := pts.Len() / leaf
	slabs := make([]float32, nslab*leaf*dim)
	for s := range nslab {
		for i := range leaf {
			for c := range dim {
				slabs[s*leaf*dim+c*leaf+i] = float32(pts.Coord(s*leaf+i, c))
			}
		}
	}
	q := make([]float32, dim)
	lo, hi := make([]float32, dim), make([]float32, dim)
	for c := range dim {
		q[c] = float32(pts.Coord(0, c))
		lo[c], hi[c] = q[c]-0.3, q[c]+0.3
	}
	dst := make([]float32, leaf)
	mask := make([]byte, leaf)
	t := time.Now()
	for i := range calls {
		s := i % nslab
		kernel.SqDistsF32(dst, q, slabs[s*leaf*dim:(s+1)*leaf*dim], leaf, leaf)
	}
	b.spans.add("kernel.sqdists", 0, 0, t, time.Now())
	b.set("kernel.sqdists_ns_per_point", "ns", float64(time.Since(t).Nanoseconds())/(calls*leaf))
	t = time.Now()
	for i := range calls {
		s := i % nslab
		kernel.PruneBox(mask, lo, hi, slabs[s*leaf*dim:(s+1)*leaf*dim], leaf, leaf)
	}
	b.spans.add("kernel.prunebox", 0, 0, t, time.Now())
	b.set("kernel.prunebox_ns_per_box", "ns", float64(time.Since(t).Nanoseconds())/calls)
}
