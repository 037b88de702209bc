package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pargeo/client"
	"pargeo/internal/engine"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/wal"
	"pargeo/internal/wire"
)

// peelOps is how many operations of its stream each caller replays at
// every in-process peel level.
const peelOps = 2500

// tracePaperBatch is paper-batch's traced run: the paper peel in full,
// then a shortened serve-read peel so that every per-layer metric is
// measured.
func (b *bench) tracePaperBatch() error {
	b.paperPeel(makePaperInputs(b.seed), 3)
	if err := b.servePeel(serveConfigs["serve-read"], time.Duration(b.seconds*float64(time.Second))/4); err != nil {
		return err
	}
	return b.recoveryPeel()
}

// traceServe is a serving workload's traced run: its serve peel, then one
// untraced-plus-traced pass of the paper families for the paper layers,
// then the recovery cycles of serve-write.
func (b *bench) traceServe(cfg serveConfig) error {
	if err := b.servePeel(cfg, time.Duration(b.seconds*float64(time.Second))/2); err != nil {
		return err
	}
	b.paperPeel(makePaperInputs(b.seed), 1)
	return b.recoveryPeel()
}

// recoveryPeel founds a serve-write server and runs its SIGKILL/restart
// cycles, with their durability checks, and sets server.recovery_s to the
// median time from restart to the first answered request.
func (b *bench) recoveryPeel() error {
	cfg := serveConfigs["serve-write"]
	ss, err := b.setupOnce(cfg)
	if err != nil {
		return err
	}
	rec, err := b.recoverCycles(ss, cfg)
	if ss.cl != nil {
		ss.cl.Close()
	}
	if ss.srv != nil {
		ss.srv.kill()
	}
	if err != nil {
		return err
	}
	b.set("server.recovery_s", "s", median(rec))
	return nil
}

// newEngine founds an in-process engine the way pargeo-serve does with
// its defaults (and, when durable, -sync-every 1).
func newEngine(m *model, dir string) (*engine.Engine, *model, error) {
	opts := engine.Options{Shards: engine.AutoShards, Rebalance: true}
	if dir != "" {
		opts.Durability = &engine.Durability{Dir: dir, SyncEvery: 1, CheckpointEvery: 4096}
	}
	eng, err := engine.Open(2, opts)
	if err != nil {
		return nil, nil, err
	}
	mm := m.clone()
	for i := range mm.pts {
		mm.pts[i] = livePoint{c: mm.pts[i].c}
	}
	res := eng.Insert(mm.points())
	if res.Err != nil || len(res.IDs) != len(mm.pts) {
		eng.Close()
		return nil, nil, fmt.Errorf("founding in-process engine: %d ids, %v", len(res.IDs), res.Err)
	}
	for i, id := range res.IDs {
		mm.pts[i].id = id
	}
	if dir != "" {
		// As the traced server does: recovery then reads a checkpoint
		// and the log written after it.
		if err := eng.Checkpoint(); err != nil {
			eng.Close()
			return nil, nil, err
		}
	}
	return eng, mm, nil
}

// servePeel replays the workload's operation stream at successive layer
// boundaries and sets the serving layers' per-layer metrics:
//
//	remote client call  →  in-process Engine (same durability)
//	  →  Engine without WAL  →  Snapshot.KNNInto
//
// plus wire encode/decode of the stream's own requests and a wal.Log
// append/sync replay of its commit records. dur is the untraced
// closed-loop phase that gives the end-to-end medians.
func (b *bench) servePeel(cfg serveConfig, dur time.Duration) error {
	ss, err := b.setupOnce(cfg)
	if err != nil {
		return err
	}
	founding := ss.m.clone()
	for i := range founding.pts {
		founding.pts[i].id = 0
	}

	// Untraced closed loop: the end-to-end reference and the server's
	// counters.
	ls, before, after, err := b.measure(ss, cfg, dur)
	if err != nil {
		ss.close()
		return err
	}
	e2eKNN, e2eUpd := median(durs(ls.knnLat)), median(durs(ls.updLat))
	b.set("client.calls_per_request", "ratio", float64(ls.attempted)/delta(before, after, "requests"))
	b.set("server.shed", "count", delta(before, after, "shed", "shed_reads", "shed_writes", "shed_control"))
	b.set("engine.query_group_size", "ratio", delta(before, after, "queries")/delta(before, after, "query_groups"))
	b.set("engine.commit_group_size", "ratio", delta(before, after, "updates")/delta(before, after, "commits"))
	b.set("engine.rebalances", "count", delta(before, after, "rebalances"))

	// Level 1: the remote call, traced, replaying a fixed prefix of the
	// streams from a fresh founding.
	if err := ss.close(); err != nil {
		return err
	}
	if ss, err = b.setupOnce(cfg); err != nil {
		return err
	}
	if cfg.durable {
		b.res.Attempted++
		if _, err := ss.cl.Checkpoint(); err != nil {
			ss.close()
			return err
		}
	}
	tl := b.loop(remote{cl: ss.cl}, ss.m, cfg, b.gens(ss.m, cfg), 0, peelOps, &b.spans, "remote")
	b.res.Attempted += tl.attempted
	b.res.Failed += tl.failed
	if err := b.checkQuiescent(ss.cl, ss.m, "after the traced replay"); err != nil {
		ss.close()
		return err
	}
	b.set("client.rtt_p50_us", "us", 1e6*b.epochRTT(ss.cl))
	if err := ss.close(); err != nil {
		return err
	}
	walDir := ss.dir

	// Levels 2 and 3: in-process engines with and without the WAL.
	durDir := filepath.Join(b.work, "engine-durable")
	for _, lv := range []struct{ name, dir string }{{"engine_mem", ""}, {"engine_durable", durDir}} {
		eng, m, err := newEngine(founding, lv.dir)
		if err != nil {
			return err
		}
		r := b.loop(inProcess{eng}, m, cfg, b.gens(m, cfg), 0, peelOps, &b.spans, lv.name)
		b.res.Attempted += r.attempted
		b.res.Failed += r.failed
		if lv.dir == "" {
			b.snapshotPeel(eng, m, cfg)
		}
		if err := eng.Close(); err != nil {
			return err
		}
	}
	if !cfg.durable {
		walDir = durDir
	}
	same := "engine_mem"
	if cfg.durable {
		same = "engine_durable"
	}
	us := func(name string) float64 { return 1e6 * b.spans.p50(name) }
	remoteKNN, remoteUpd := us("remote.knn"), us("remote.update")
	engKNN, engUpd := us(same+".knn"), us(same+".update")
	memUpd, durUpd := us("engine_mem.update"), us("engine_durable.update")
	snapKNN := us("snapshot.knninto")
	b.set("client.knn_p50_us", "us", remoteKNN)
	b.set("client.update_p50_us", "us", remoteUpd)
	b.set("server.knn_self_us", "us", remoteKNN-engKNN)
	b.set("server.update_self_us", "us", remoteUpd-engUpd)
	b.set("engine.knn_p50_us", "us", engKNN)
	b.set("engine.update_p50_us", "us", engUpd)
	b.set("engine.update_mem_p50_us", "us", memUpd)
	b.set("engine.combiner_self_us", "us", engKNN-snapKNN)
	b.set("bdltree.knn_p50_us", "us", snapKNN)
	b.set("wal.self_p50_us", "us", durUpd-memUpd)

	wireKNN, wireUpd := b.wirePeel(founding, cfg)
	if err := b.walPeel(founding, cfg, walDir); err != nil {
		return err
	}

	// Reconciliation: each layer's self time, with the residual that
	// makes the rows sum to the untraced end-to-end median.
	knnRows := [][2]any{
		{"client+loopback+server (remote − Engine.KNN − wire)", remoteKNN - engKNN - wireKNN},
		{"wire encode+decode, request and response", wireKNN},
		{"engine query combiner (Engine.KNN − KNNInto)", engKNN - snapKNN},
		{"bdltree+kernel (Snapshot.KNNInto)", snapKNN},
	}
	updRows := [][2]any{
		{"client+loopback+server (remote − Engine.Update − wire)", remoteUpd - engUpd - wireUpd},
		{"wire encode+decode, request and response", wireUpd},
	}
	if cfg.durable {
		updRows = append(updRows, [2]any{"wal (durable − in-memory Engine.Update)", durUpd - memUpd})
	}
	updRows = append(updRows, [2]any{"engine commit+bdltree (in-memory Engine.Update)", memUpd})
	for _, t := range []struct {
		name      string
		e2e, trac float64
		rows      [][2]any
	}{{"k-NN p50", 1e6 * e2eKNN, remoteKNN, knnRows}, {"update p50", 1e6 * e2eUpd, remoteUpd, updRows}} {
		sum := 0.0
		for _, r := range t.rows {
			sum += r[1].(float64)
		}
		rows := append(t.rows, [2]any{"residual", t.e2e - sum})
		table(fmt.Sprintf("%s %s: layer self times", cfg.name, t.name), "us", t.e2e, rows)
		fmt.Printf("  tracing overhead: %+.4g us (traced %.4g − untraced %.4g)\n", t.trac-t.e2e, t.trac, t.e2e)
	}
	return nil
}

// setupOnce founds one server (the traced run reports no setup_s).
func (b *bench) setupOnce(cfg serveConfig) (*fixture, error) {
	b.setups++
	ss, _, err := b.setup(cfg, b.setups)
	return ss, err
}

// epochRTT is the median round trip of the control Epoch call, which
// does no engine work: client, wire, loopback and server dispatch alone.
func (b *bench) epochRTT(cl *client.Client) float64 {
	const n = 2000
	for i := range n {
		t := time.Now()
		b.res.Attempted++
		if _, err := cl.Epoch(); err != nil {
			b.res.Failed++
			continue
		}
		b.spans.add("client.epoch", 0, int64(i), t, time.Now())
	}
	return b.spans.p50("client.epoch")
}

// snapshotPeel replays the k-NN queries of the streams against the
// engine's current snapshot, one KNNInto per query, below the combiner.
func (b *bench) snapshotPeel(eng *engine.Engine, m *model, cfg serveConfig) {
	snap := eng.Snapshot()
	buf := kdtree.NewKNNBuffer(serveK)
	for c, g := range b.gens(m, cfg) {
		for i := range peelOps {
			o := g.next()
			if !o.knn {
				continue
			}
			buf.Reset()
			t := time.Now()
			snap.KNNInto(o.q[:], -1, buf)
			b.spans.add("snapshot.knninto", 0, int64(c)<<32|int64(i), t, time.Now())
		}
	}
}

// wirePeel encodes and decodes the requests and responses of caller 0's
// stream with the wire codec, and returns the per-operation codec time of
// a k-NN and of a move in µs.
func (b *bench) wirePeel(m *model, cfg serveConfig) (knnUS, updUS float64) {
	g := newOpGen(b.seed, cfg, 100, m, m.own[0])
	var reqs []wire.Request
	var resps []wire.Response
	for i := range peelOps {
		o := g.next()
		if o.knn {
			reqs = append(reqs, wire.Request{Op: wire.OpKNN, ID: uint64(i), K: serveK, Queries: geom.Points{Data: o.q[:], Dim: 2}})
			resps = append(resps, wire.Response{Op: wire.OpKNN, ID: uint64(i), Neighbors: [][]int32{{0, 1, 2, 3, 4, 5, 6, 7}}})
			continue
		}
		reqs = append(reqs, wire.Request{Op: wire.OpUpdate, ID: uint64(i),
			Ins: geom.Points{Data: o.to[:], Dim: 2}, Del: geom.Points{Data: m.pts[o.slot].c[:], Dim: 2}})
		resps = append(resps, wire.Response{Op: wire.OpUpdate, ID: uint64(i), IDs: []int32{int32(serveN + i)}, Deleted: 1, Epoch: uint64(i)})
	}
	var buf []byte
	var per [2][4][]float64 // [knn, update][encReq, decReq, encResp, decResp] ns
	var bytes [2][2]float64 // [knn, update][req, resp]
	var counts [2]float64
	for i := range reqs {
		kind := 1
		if reqs[i].Op == wire.OpKNN {
			kind = 0
		}
		counts[kind]++
		// Each call is timed over a run of repetitions: one call takes
		// about as long as reading the clock.
		const reps = 64
		t := time.Now()
		for range reps {
			buf = wire.AppendRequest(buf[:0], &reqs[i])
		}
		t1 := time.Now()
		for range reps {
			if _, _, err := wire.DecodeRequest(buf, 2); err != nil {
				b.wrong("wire: decoding an encoded request: %v", err)
			}
		}
		t2 := time.Now()
		bytes[kind][0] += float64(len(buf))
		for range reps {
			buf = wire.AppendResponse(buf[:0], &resps[i])
		}
		t3 := time.Now()
		for range reps {
			if _, _, err := wire.DecodeResponse(buf, 2); err != nil {
				b.wrong("wire: decoding an encoded response: %v", err)
			}
		}
		t4 := time.Now()
		bytes[kind][1] += float64(len(buf))
		b.spans.add("wire.encode", 0, int64(i), t, t1)
		b.spans.add("wire.decode", 0, int64(i), t1, t2)
		b.spans.add("wire.encode", 0, int64(i), t2, t3)
		b.spans.add("wire.decode", 0, int64(i), t3, t4)
		for j, d := range []time.Duration{t1.Sub(t), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
			per[kind][j] = append(per[kind][j], float64(d.Nanoseconds())/reps)
		}
	}
	b.set("wire.knn_req_bytes", "B", bytes[0][0]/counts[0])
	b.set("wire.knn_resp_bytes", "B", bytes[0][1]/counts[0])
	b.set("wire.update_req_bytes", "B", bytes[1][0]/counts[1])
	enc := (median(per[0][0]) + median(per[0][2]) + median(per[1][0]) + median(per[1][2])) / 2
	dec := (median(per[0][1]) + median(per[0][3]) + median(per[1][1]) + median(per[1][3])) / 2
	b.set("wire.encode_ns", "ns", enc)
	b.set("wire.decode_ns", "ns", dec)
	knnUS = (median(per[0][0]) + median(per[0][1]) + median(per[0][2]) + median(per[0][3])) / 1e3
	updUS = (median(per[1][0]) + median(per[1][1]) + median(per[1][2]) + median(per[1][3])) / 1e3
	return knnUS, updUS
}

// walPeel appends the commit records of caller 0's moves to a fresh
// wal.Log with strict durability, timing Append and WaitDurable, and then
// times recovery's two reads of walDir: the latest checkpoint and the log
// after it.
func (b *bench) walPeel(m *model, cfg serveConfig, walDir string) error {
	dir := filepath.Join(b.work, "wal-replay")
	lg, err := wal.OpenLog(wal.OSFS{}, dir, 2, wal.LogOptions{SyncEvery: 1}, 1)
	if err != nil {
		return err
	}
	g := newOpGen(b.seed, cfg, 100, m, m.own[0])
	var body []byte
	updates := 0
	for i := range peelOps {
		o := g.next()
		if o.knn {
			continue
		}
		updates++
		body = wal.AppendCommitBody(body[:0], []geom.Points{{Data: m.pts[o.slot].c[:], Dim: 2}},
			geom.Points{Data: o.to[:], Dim: 2}, []int32{int32(serveN + i)})
		t := time.Now()
		lsn, err := lg.Append(wal.KindCommit, uint64(updates), body)
		t1 := time.Now()
		if err != nil {
			lg.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		if err := lg.WaitDurable(lsn); err != nil {
			lg.Close()
			return fmt.Errorf("wal sync: %w", err)
		}
		t2 := time.Now()
		b.spans.add("wal.append", 0, int64(i), t, t1)
		b.spans.add("wal.sync", 0, int64(i), t1, t2)
	}
	if err := lg.Close(); err != nil {
		return err
	}
	b.set("wal.append_p50_us", "us", 1e6*b.spans.p50("wal.append"))
	b.set("wal.sync_p50_us", "us", 1e6*b.spans.p50("wal.sync"))
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	b.set("wal.bytes_per_update", "B", float64(size)/float64(updates))

	t := time.Now()
	ck, err := wal.LoadLatestCheckpoint(wal.OSFS{}, walDir)
	b.spans.add("wal.checkpoint_load", 0, 0, t, time.Now())
	b.set("wal.checkpoint_load_s", "s", time.Since(t).Seconds())
	if err != nil {
		return fmt.Errorf("load checkpoint of %s: %w", walDir, err)
	}
	after := uint64(0)
	if ck != nil {
		after = ck.Epoch
	}
	t = time.Now()
	recs, err := wal.ScanLog(wal.OSFS{}, walDir, 2, after)
	b.spans.add("wal.scan", 0, 0, t, time.Now())
	b.set("wal.scan_s", "s", time.Since(t).Seconds())
	if err != nil {
		return fmt.Errorf("scan log of %s: %w", walDir, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: recovery of %s reads a checkpoint (%v) and %d records\n", walDir, ck != nil, len(recs))
	return nil
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
