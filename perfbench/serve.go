package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pargeo/client"
	"pargeo/internal/engine"
	"pargeo/internal/geom"
)

// serveConfig is one serving workload's traffic.
type serveConfig struct {
	name     string
	durable  bool    // -dir with -sync-every 1: acked ⇒ durable
	knnShare float64 // share of k-NN calls; the rest are moves
	hot      bool    // moves confined to hotBox (founding points inside it move)
}

var serveConfigs = map[string]serveConfig{
	"serve-read":  {name: "serve-read", knnShare: 0.95},
	"serve-write": {name: "serve-write", durable: true, knnShare: 0.30, hot: true},
}

const (
	serveN     = 100000 // founding points, uniform in the unit square
	serveK     = 8      // k of every remote k-NN
	callers    = 2      // closed-loop callers on one connection (≤ nproc)
	windows    = 30     // equal windows of a run, for pass_s, pass_cpu_s and the p99s
	passCalls  = 1000   // client calls in one pass of a serving workload
	foundChunk = 5000   // founding points per insert call
	setups     = 9      // set-ups per measured run; setup_s is their median
	probes     = 256    // quiescent k-NN probes checked against the model
	recoveries = 5      // SIGKILL/restart cycles per serve-write run
	tailMoves  = 200    // acked moves between a checkpoint and each SIGKILL
)

// hotBox is serve-write's hot region: [lo, hi] in both dimensions. Its
// moves hop at most hop in each dimension.
var hotBox = [2]float64{0.15, 0.35}

const hop = 0.01

// livePoint is one point of the benchmark's model of the live set.
type livePoint struct {
	id int32
	c  [2]float64
}

// model is the benchmark's own record of what the server holds, built
// from acknowledged ids and coordinates. Caller c alone moves the points
// in own[c], so callers update it without locks.
type model struct {
	pts   []livePoint
	own   [][]int
	moved []bool
}

func newModel(seed uint64, cfg serveConfig) *model {
	r := rng(seed, 20)
	m := &model{pts: make([]livePoint, serveN), own: make([][]int, callers), moved: make([]bool, serveN)}
	n := 0
	for i := range m.pts {
		m.pts[i].c = [2]float64{r.Float64(), r.Float64()}
		if !cfg.hot || inHot(m.pts[i].c) {
			m.own[n%callers] = append(m.own[n%callers], i)
			n++
		}
	}
	return m
}

func inHot(c [2]float64) bool {
	return c[0] >= hotBox[0] && c[0] <= hotBox[1] && c[1] >= hotBox[0] && c[1] <= hotBox[1]
}

func (m *model) clone() *model {
	return &model{pts: append([]livePoint(nil), m.pts...), own: m.own, moved: make([]bool, len(m.moved))}
}

func (m *model) points() geom.Points {
	p := geom.NewPoints(len(m.pts), 2)
	for i, lp := range m.pts {
		p.Set(i, lp.c[:])
	}
	return p
}

func (m *model) flat() []float64 { return m.points().Data }

// lookup maps a live id to its coordinates.
func (m *model) lookup() func(id int32) ([]float64, bool) {
	byID := make(map[int32]int, len(m.pts))
	for i, lp := range m.pts {
		byID[lp.id] = i
	}
	return func(id int32) ([]float64, bool) {
		i, ok := byID[id]
		if !ok {
			return nil, false
		}
		return m.pts[i].c[:], true
	}
}

// op is one operation of a caller's stream.
type op struct {
	knn  bool
	q    [2]float64 // k-NN query point
	slot int        // moved model index
	to   [2]float64 // its new position
}

// opGen draws a caller's operation stream from its own generator, so a
// seed fixes every stream whatever the timing.
type opGen struct {
	cfg serveConfig
	r   *rand.Rand
	own []int
	m   *model // current positions, for serve-write's hops
}

func newOpGen(seed uint64, cfg serveConfig, stream uint64, m *model, own []int) *opGen {
	return &opGen{cfg: cfg, r: rng(seed, stream), m: m, own: own}
}

func (g *opGen) next() op {
	if g.r.Float64() < g.cfg.knnShare {
		return op{knn: true, q: [2]float64{g.r.Float64(), g.r.Float64()}}
	}
	o := op{slot: g.own[g.r.IntN(len(g.own))], to: [2]float64{g.r.Float64(), g.r.Float64()}}
	if g.cfg.hot {
		// A short hop that stays in the hot box: a cut through the box
		// then divides the write stream instead of straddling it.
		// A hop that would leave the box is reflected back into it.
		for d, v := range g.m.pts[o.slot].c {
			step := hop * (2*o.to[d] - 1)
			if o.to[d] = v + step; o.to[d] < hotBox[0] || o.to[d] > hotBox[1] {
				o.to[d] = v - step
			}
		}
	}
	return o
}

// target is a peel level that answers k-NN and moves: the remote server
// through the client, or an in-process engine.
type target interface {
	knn(q []float64) ([]int32, error)
	move(from, to []float64) (engine.UpdateResult, error)
}

// remote is the server process through the client. With pid set, a
// timed loop also reads the server's CPU time at every window boundary.
type remote struct {
	cl  *client.Client
	pid int
}

func (r remote) knn(q []float64) ([]int32, error) { return r.cl.KNN(q, serveK) }
func (r remote) move(from, to []float64) (engine.UpdateResult, error) {
	res := r.cl.Update(geom.Points{Data: to, Dim: 2}, geom.Points{Data: from, Dim: 2})
	return res, res.Err
}

type inProcess struct{ eng *engine.Engine }

func (e inProcess) knn(q []float64) ([]int32, error) { return e.eng.KNN(q, serveK), nil }
func (e inProcess) move(from, to []float64) (engine.UpdateResult, error) {
	res := e.eng.Update(geom.Points{Data: to, Dim: 2}, geom.Points{Data: from, Dim: 2})
	return res, res.Err
}

// loadStats is what one closed loop measured.
type loadStats struct {
	knnLat, updLat    []time.Duration
	winKNN, winUpd    [windows][]time.Duration
	winOps            [windows]int
	winSteal          [windows]float64 // host CPU share stolen in each window
	winCPU            [windows]float64 // server CPU seconds in each window (remote with pid)
	cpuErr            error            // reading the server's CPU time failed
	attempted, failed int64
	winDur            time.Duration
}

func (s *loadStats) merge(o *loadStats) {
	s.knnLat = append(s.knnLat, o.knnLat...)
	s.updLat = append(s.updLat, o.updLat...)
	for w := range windows {
		s.winKNN[w] = append(s.winKNN[w], o.winKNN[w]...)
		s.winUpd[w] = append(s.winUpd[w], o.winUpd[w]...)
		s.winOps[w] += o.winOps[w]
	}
	s.attempted += o.attempted
	s.failed += o.failed
}

// loop runs the closed loop: each of the callers issues its stream's
// next operation as soon as the previous one is answered, for dur or —
// when ops > 0 — for exactly ops operations each. Acknowledged moves are
// applied to m. With spans set, every call is recorded as a span named
// level+".knn" or level+".update"; op ids match across levels.
func (b *bench) loop(t target, m *model, cfg serveConfig, gens []*opGen, dur time.Duration, ops int, spans *spanLog, level string) *loadStats {
	total := &loadStats{winDur: dur / windows}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	if ops == 0 {
		cpu := func() float64 { return 0 }
		if r, ok := t.(remote); ok && r.pid != 0 {
			cpu = func() float64 {
				v, err := procCPU(r.pid)
				if err != nil && total.cpuErr == nil {
					total.cpuErr = fmt.Errorf("server CPU time: %w", err)
				}
				return v
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c0 := cpu()
			for w := range windows {
				m := startSteal()
				time.Sleep(time.Until(start.Add(time.Duration(w+1) * total.winDur)))
				total.winSteal[w] = m.share()
				c1 := cpu()
				total.winCPU[w], c0 = c1-c0, c1
			}
		}()
	}
	for c, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &loadStats{}
			for i := 0; ops > 0 && i < ops || ops == 0 && time.Since(start) < dur; i++ {
				o := g.next()
				s.attempted++
				t0 := time.Now()
				var err error
				var ids []int32
				var res engine.UpdateResult
				if o.knn {
					ids, err = t.knn(o.q[:])
				} else {
					res, err = t.move(m.pts[o.slot].c[:], o.to[:])
				}
				t1 := time.Now()
				lat := t1.Sub(t0)
				w := -1
				if ops == 0 {
					w = int(t1.Sub(start) / total.winDur)
				}
				if spans != nil {
					name := level + ".update"
					if o.knn {
						name = level + ".knn"
					}
					spans.add(name, 0, int64(c)<<32|int64(i), t0, t1)
				}
				if err != nil {
					s.failed++
					continue
				}
				if w >= 0 && w < windows {
					s.winOps[w]++
				}
				if o.knn {
					s.knnLat = append(s.knnLat, lat)
					if w >= 0 && w < windows {
						s.winKNN[w] = append(s.winKNN[w], lat)
					}
					if len(ids) != serveK {
						b.wrong("%s k-NN returned %d ids, want %d", level, len(ids), serveK)
					}
					continue
				}
				s.updLat = append(s.updLat, lat)
				if w >= 0 && w < windows {
					s.winUpd[w] = append(s.winUpd[w], lat)
				}
				if res.Deleted != 1 || len(res.IDs) != 1 {
					b.wrong("%s move of point %d: deleted %d, %d new ids; want 1 and 1", level, m.pts[o.slot].id, res.Deleted, len(res.IDs))
					continue
				}
				m.pts[o.slot] = livePoint{id: res.IDs[0], c: o.to}
				m.moved[o.slot] = true
			}
			mu.Lock()
			total.merge(s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

func (b *bench) gens(m *model, cfg serveConfig) []*opGen {
	g := make([]*opGen, callers)
	for c := range g {
		g[c] = newOpGen(b.seed, cfg, 100+uint64(c), m, m.own[c])
	}
	return g
}

// --- the server process -------------------------------------------------------

// serverLog collects a server's output and reports the address it
// announces ("listening on ADDR ...").
type serverLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	seen bool
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.seen {
		text := l.buf.String()
		if i := strings.Index(text, "listening on "); i >= 0 {
			if rest := text[i+len("listening on "):]; strings.Contains(rest, " ") {
				l.seen = true
				l.addr <- strings.Fields(rest)[0]
			}
		}
	}
	return len(p), nil
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// server is a running pargeo-serve process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	log    *serverLog
	exited chan error
}

func serverArgs(cfg serveConfig, dir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-dim", "2"}
	if cfg.durable {
		args = append(args, "-dir", dir, "-sync-every", "1")
	}
	return args
}

// startServer starts pargeo-serve and waits until it listens.
func startServer(bin string, args []string) (*server, error) {
	s := &server{cmd: exec.Command(bin, args...), log: &serverLog{addr: make(chan string, 1)}, exited: make(chan error, 1)}
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	select {
	case s.addr = <-s.log.addr:
		return s, nil
	case err := <-s.exited:
		return nil, fmt.Errorf("pargeo-serve exited before listening: %v\n%s", err, s.log)
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("pargeo-serve did not listen within 60s\n%s", s.log)
	}
}

// kill ends the server with SIGKILL and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	<-s.exited
}

// stop asks the server to drain and exit, and waits for it.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("pargeo-serve: %v\n%s", err, s.log)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("pargeo-serve did not stop within 30s of SIGTERM")
	}
}

func (s *server) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid)) }

// fixture is a server with its client and the model of its live set.
type fixture struct {
	srv *server
	cl  *client.Client
	m   *model
	dir string
}

func (ss *fixture) close() error {
	ss.cl.Close()
	return ss.srv.stop()
}

// setup generates the founding points, starts a server and founds it.
func (b *bench) setup(cfg serveConfig, i int) (*fixture, time.Duration, error) {
	t := time.Now()
	ss := &fixture{m: newModel(b.seed, cfg), dir: filepath.Join(b.work, fmt.Sprintf("%s-%d", cfg.name, i))}
	srv, err := startServer(b.serverBin, serverArgs(cfg, ss.dir))
	if err != nil {
		return nil, 0, err
	}
	ss.srv = srv
	if ss.cl, err = client.Dial(srv.addr); err != nil {
		srv.kill()
		return nil, 0, err
	}
	pts := ss.m.points()
	for lo := 0; lo < serveN; lo += foundChunk {
		hi := min(lo+foundChunk, serveN)
		b.res.Attempted++
		res := ss.cl.Insert(pts.Slice(lo, hi))
		if res.Err != nil {
			ss.close()
			return nil, 0, fmt.Errorf("founding insert: %w", res.Err)
		}
		if len(res.IDs) != hi-lo {
			b.wrong("founding insert returned %d ids, want %d", len(res.IDs), hi-lo)
			continue
		}
		for j, id := range res.IDs {
			ss.m.pts[lo+j].id = id
		}
	}
	return ss, time.Since(t), nil
}

// setupMedian sets up several times, keeps the last fixture and reports
// the median set-up time.
func (b *bench) setupMedian(cfg serveConfig) (*fixture, float64, error) {
	var times []float64
	var ss *fixture
	for i := range setups {
		if ss != nil {
			if err := ss.close(); err != nil {
				return nil, 0, err
			}
		}
		var d time.Duration
		var err error
		if ss, d, err = b.setup(cfg, i); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return ss, median(times), nil
}

// stats reads the server's counters.
func (b *bench) stats(cl *client.Client) (map[string]uint64, error) {
	b.res.Attempted++
	st, err := cl.Stats()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

func delta(before, after map[string]uint64, names ...string) float64 {
	s := 0.0
	for _, n := range names {
		s += float64(after[n]) - float64(before[n])
	}
	return s
}

// checkQuiescent compares the server with the model while no load runs:
// the live size, and k-NN at probe points against a brute-force scan of
// the model.
func (b *bench) checkQuiescent(cl *client.Client, m *model, when string) error {
	st, err := b.stats(cl)
	if err != nil {
		return err
	}
	if st["size"] != uint64(len(m.pts)) {
		b.wrong("%s: server holds %d points, model %d", when, st["size"], len(m.pts))
	}
	r := rng(b.seed, 30)
	flat, lookup := m.flat(), m.lookup()
	for range probes {
		q := []float64{r.Float64(), r.Float64()}
		b.res.Attempted++
		ids, err := cl.KNN(q, serveK)
		if err != nil {
			b.res.Failed++
			continue
		}
		b.check(when+": probe", checkKNN(q, ids, lookup, bruteKNN(flat, 2, q, serveK)))
	}
	return nil
}

// checkPresent checks that every point of the model (or only the moved
// ones) is live on the server under its acknowledged id: the nearest
// neighbor of its own coordinates is itself.
func (b *bench) checkPresent(cl *client.Client, m *model, movedOnly bool, when string) {
	const chunk = 2048
	var idx []int
	for i := range m.pts {
		if !movedOnly || m.moved[i] {
			idx = append(idx, i)
		}
	}
	for lo := 0; lo < len(idx); lo += chunk {
		part := idx[lo:min(lo+chunk, len(idx))]
		q := geom.NewPoints(len(part), 2)
		for j, i := range part {
			q.Set(j, m.pts[i].c[:])
		}
		b.res.Attempted++
		res, err := cl.KNNBatch(q, 1)
		if err != nil {
			b.res.Failed++
			continue
		}
		if err := missingAcked(m, part, res); err != nil {
			b.wrong("%s: %v", when, err)
			return
		}
	}
}

// missingAcked reports the first model point of idx whose nearest live
// point on the server, nearest[j], is not itself under its acked id.
func missingAcked(m *model, idx []int, nearest [][]int32) error {
	for j, i := range idx {
		if len(nearest[j]) != 1 || nearest[j][0] != m.pts[i].id {
			return fmt.Errorf("acked point id %d at %v is missing (nearest %v)", m.pts[i].id, m.pts[i].c, nearest[j])
		}
	}
	return nil
}

// serve is a measured run of a serving workload.
func (b *bench) serve(cfg serveConfig) error {
	ss, setupS, err := b.setupMedian(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if ss.srv != nil {
			ss.cl.Close()
			ss.srv.kill()
		}
	}()
	b.set("setup_s", "s", setupS)
	ls, before, after, err := b.measure(ss, cfg, time.Duration(b.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops (%d k-NN, %d moves), shed %g, rebalances %g, query group %.2f, commit group %.2f\n",
		ls.attempted, len(ls.knnLat), len(ls.updLat), delta(before, after, "shed", "shed_reads", "shed_writes", "shed_control"),
		delta(before, after, "rebalances"), delta(before, after, "queries")/delta(before, after, "query_groups"),
		delta(before, after, "updates")/delta(before, after, "commits"))
	var ops, cpu, kp99, up99, knn, upd []float64
	keep := calmest(ls.winSteal[:])
	for _, w := range keep {
		ops = append(ops, float64(ls.winOps[w])/ls.winDur.Seconds())
		cpu = append(cpu, ls.winCPU[w]/float64(ls.winOps[w]))
		kp99 = append(kp99, 1e3*quantile(durs(ls.winKNN[w]), 0.99))
		up99 = append(up99, 1e3*quantile(durs(ls.winUpd[w]), 0.99))
		knn = append(knn, durs(ls.winKNN[w])...)
		upd = append(upd, durs(ls.winUpd[w])...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: steal per window %.3f, kept %v\n  ops/s %.0f\n  server CPU us/op %.1f\n  k-NN p99 ms %.2f\n  update p99 ms %.2f\n",
		ls.winSteal, keep, ops, scale(cpu, 1e6), kp99, up99)
	fmt.Fprintf(os.Stderr, "perfbench: calm windows: %.1f ops/s, k-NN p50 %.3f ms p99 %.3f ms, update p50 %.3f ms p99 %.3f ms\n",
		median(ops), 1e3*median(knn), median(kp99), 1e3*median(upd), median(up99))
	// A pass is passCalls calls in the workload's mix, timed as the sum
	// of its calls' median latencies, as paper-batch sums its families'
	// medians. The closed loop's rate, passCalls/ops_s, follows the
	// latency tail that steal stretches; it is printed only.
	pass := passCalls * (cfg.knnShare*median(knn) + (1-cfg.knnShare)*median(upd))
	fmt.Fprintf(os.Stderr, "perfbench: pass %.4f s at median latencies, %.4f s at the calm windows' rate\n", pass, passCalls/median(ops))
	b.set("pass_s", "s", pass)
	b.set("pass_cpu_s", "s", passCalls*median(cpu))
	if err := b.checkQuiescent(ss.cl, ss.m, "after the run"); err != nil {
		return err
	}
	rss, err := ss.srv.peakRSSMB()
	if err != nil {
		return err
	}
	b.set("rss_peak_mb", "MB", rss)
	if cfg.durable {
		rec, err := b.recoverCycles(ss, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: recovery (SIGKILL, restart, first answer) %.4f s median of %.4f s\n", median(rec), rec)
	}
	err = ss.close()
	ss.srv = nil
	return err
}

// measure runs the closed loop for dur and reads the server's counters
// before and after it.
func (b *bench) measure(ss *fixture, cfg serveConfig, dur time.Duration) (*loadStats, map[string]uint64, map[string]uint64, error) {
	before, err := b.stats(ss.cl)
	if err != nil {
		return nil, nil, nil, err
	}
	ls := b.loop(remote{ss.cl, ss.srv.cmd.Process.Pid}, ss.m, cfg, b.gens(ss.m, cfg), dur, 0, nil, "remote")
	b.res.Attempted += ls.attempted
	b.res.Failed += ls.failed
	after, err := b.stats(ss.cl)
	if err != nil {
		return nil, nil, nil, err
	}
	if ls.cpuErr != nil {
		return nil, nil, nil, ls.cpuErr
	}
	if len(ls.knnLat) == 0 || len(ls.updLat) == 0 {
		return nil, nil, nil, fmt.Errorf("run too short: %d k-NN and %d moves answered", len(ls.knnLat), len(ls.updLat))
	}
	return ls, before, after, nil
}

// recoverCycles checkpoints, makes tailMoves more acknowledged moves,
// kills the server with SIGKILL and restarts it on the same directory,
// timing the restart to the first answered request; then it checks the
// recovered state against the model. It returns the recovery times.
func (b *bench) recoverCycles(ss *fixture, cfg serveConfig) ([]float64, error) {
	var rec []float64
	moves := cfg
	moves.knnShare = 0
	var own []int
	for _, o := range ss.m.own {
		own = append(own, o...)
	}
	for i := range recoveries {
		b.res.Attempted++
		if _, err := ss.cl.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		tail := b.loop(remote{cl: ss.cl}, ss.m, moves, []*opGen{newOpGen(b.seed, moves, 200+uint64(i), ss.m, own)}, 0, tailMoves, nil, "remote")
		b.res.Attempted += tail.attempted
		b.res.Failed += tail.failed
		ss.cl.Close()
		ss.srv.kill()
		t := time.Now()
		srv, err := startServer(b.serverBin, serverArgs(cfg, ss.dir))
		if err != nil {
			ss.srv = nil
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		ss.srv = srv
		if ss.cl, err = client.Dial(srv.addr); err != nil {
			return nil, err
		}
		b.res.Attempted++
		if _, err := ss.cl.Epoch(); err != nil {
			return nil, fmt.Errorf("first request after restart: %w", err)
		}
		rec = append(rec, time.Since(t).Seconds())
		when := fmt.Sprintf("after restart %d", i+1)
		if err := b.checkQuiescent(ss.cl, ss.m, when); err != nil {
			return nil, err
		}
		b.checkPresent(ss.cl, ss.m, i > 0, when)
	}
	return rec, nil
}
