package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
	"delaycalc/internal/sim"
	"delaycalc/internal/topo"
)

// Layer names, top to bottom. Each replays the same operation stream from
// a fresh state built from the workload's spec.
const (
	layerDelayd    = "delayd"    // the daemon process over loopback HTTP
	layerService   = "service"   // service.Server.ServeHTTP in process
	layerAdmission = "admission" // the admission engine delayd runs
	layerAnalysis  = "analysis"  // analysis.Baseline extend/shrink + promote
)

var layers = []string{layerDelayd, layerService, layerAdmission, layerAnalysis}

// span is one timed call at one layer boundary. Parent is the op id of
// the enclosing call (a batch's sub-operations at the analysis layer), or
// -1 for a top-level op.
type span struct {
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(opID int, layer, name string, start, end time.Time, parent int) {
	t.spans = append(t.spans, span{opID, layer, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRun is one layer's replay of the stream.
type layerRun struct {
	times     map[int]float64 // op id -> µs, measured ops only
	sigs      map[int]string  // op id -> result signature, every op
	mallocs   uint64
	bytes     uint64
	respBytes int
	measured  int
}

func newLayerRun() *layerRun {
	return &layerRun{times: map[int]float64{}, sigs: map[int]string{}}
}

// memCounter reads the allocation counters around one call.
type memCounter struct{ ms runtime.MemStats }

func (m *memCounter) read() (mallocs, bytes uint64) {
	runtime.ReadMemStats(&m.ms)
	return m.ms.Mallocs, m.ms.TotalAlloc
}

// observe records one top-level call of a layer.
func (lr *layerRun) observe(tr *tracer, layer string, o op, start, end time.Time, measured bool, r *result, m0, b0, m1, b1 uint64) {
	tr.add(o.ID, layer, o.Kind.String(), start, end, -1)
	lr.sigs[o.ID] = r.signature()
	if !measured {
		return
	}
	lr.measured++
	lr.times[o.ID] = float64(end.Sub(start)) / float64(time.Microsecond)
	lr.mallocs += m1 - m0
	lr.bytes += b1 - b0
	lr.respBytes += r.RespBytes
}

// replayer executes the stream at one layer.
type replayer func(tr *tracer, stream []op, warm int) (*layerRun, error)

// traceServing runs the traced replays after an end-to-end run and
// returns the per-layer metrics plus any failed check.
func traceServing(cfg *runConfig, run *servingRun) (map[string]float64, []string, error) {
	w := run.w
	specPath := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	analyzer, err := service.PickAnalyzer(w.algo)
	if err != nil {
		return nil, nil, err
	}
	standing, err := standingConnections(w, specPath)
	if err != nil {
		return nil, nil, err
	}
	tr := &tracer{t0: time.Now()}

	stream, top, err := recordDelayd(cfg, w, specPath, tr)
	if err != nil {
		return nil, nil, err
	}
	runs := map[string]*layerRun{layerDelayd: top}
	replays := map[string]replayer{
		layerService:   serviceReplayer(run.servers, analyzer, standing),
		layerAdmission: admissionReplayer(run.servers, analyzer, standing),
		layerAnalysis:  analysisReplayer(run.servers, analyzer, standing),
	}
	for _, layer := range layers[1:] {
		lr, err := replays[layer](tr, stream, w.traceWarm)
		if err != nil {
			return nil, nil, fmt.Errorf("%s replay: %w", layer, err)
		}
		runs[layer] = lr
	}
	if err := tr.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
		return nil, nil, err
	}

	problems := agreement(stream, runs)
	m := ladder(stream[w.traceWarm:], runs)
	perOp := float64(runs[layerService].measured)
	m["service.allocs_per_op"] = float64(runs[layerService].mallocs) / perOp
	m["service.bytes_per_op"] = float64(runs[layerService].bytes) / perOp
	m["service.resp_bytes_per_op"] = float64(runs[layerService].respBytes) / perOp
	m["admission.allocs_per_op"] = float64(runs[layerAdmission].mallocs) / float64(runs[layerAdmission].measured)
	m["analysis.allocs_per_op"] = float64(runs[layerAnalysis].mallocs) / float64(runs[layerAnalysis].measured)

	// Counters from the end-to-end run's closed-loop window.
	closedOps := run.closed.Succeeded
	for k, v := range run.counters.admissionLayer() {
		m[k] = v
	}
	for k, v := range run.counters.stageMsPerOp(closedOps) {
		m[k] = v
	}
	m["delayd.cpu_ms_per_op"] = run.cpuSec * 1000 / float64(closedOps)
	m["delayd.cpu_util"] = run.cpuSec / (run.closed.Elapsed.Seconds() * float64(cfg.conns))
	m["delayd.server_share"] = ratio(run.counters.serverSeconds(), run.closed.ClientSeconds)
	m["loadgen.lateness_p99_ms"] = run.open[len(run.open)/2].LatenessP99
	e2e, tailProblems := run.endToEnd()
	problems = append(problems, tailProblems...)
	m["delayd.write_p99_ms"] = e2e["write_p99_ms"]
	m["delayd.open_p99_ms"] = e2e["open_p99_ms"]
	m["delayd.open_p50_ms"] = e2e["open_p50_ms"]

	final := &topo.Network{Servers: run.servers, Connections: run.final}
	full, err := fullAnalysisTimes(analyzer, final)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range full {
		m[k] = v
	}
	micro, err := minplusMicro(final)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range micro {
		m[k] = v
	}
	simM, err := simTimes([]simRun{{"final admitted set", final, sim.WorstCaseHorizon(final)}})
	if err != nil {
		return nil, nil, err
	}
	for k, v := range simM {
		m[k] = v
	}
	return m, problems, nil
}

// standingConnections returns the spec's deadline-bearing connections in
// the order delayd pre-admits them.
func standingConnections(w *serving, specPath string) ([]topo.Connection, error) {
	if w.spec == nil {
		return nil, nil
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	net, err := netspec.Decode(data)
	if err != nil {
		return nil, err
	}
	var out []topo.Connection
	for _, c := range net.Connections {
		if c.Deadline > 0 {
			out = append(out, c)
		}
	}
	return out, nil
}

// recordDelayd boots a fresh daemon and drives it with one connection,
// generating the stream as it goes: the stream is deterministic for the
// seed because every decision it depends on is.
func recordDelayd(cfg *runConfig, w *serving, specPath string, tr *tracer) ([]op, *layerRun, error) {
	d, _, err := startDaemon(cfg.delayd, w.daemonArgs(specPath), filepath.Join(cfg.work, "delayd-trace.log"))
	if err != nil {
		return nil, nil, err
	}
	c := httpClient(1)
	g := newGenerator(w)
	rng := rand.New(rand.NewSource(cfg.seed*15485863 + 7))
	lr := newLayerRun()
	var stream []op
	for i := 0; i < w.traceWarm+w.traceOps; i++ {
		o := g.next(rng, rng.Intn(len(w.blocks)), "t")
		start := time.Now()
		r, el := doHTTP(context.Background(), c, d.base, o)
		if r.Failed || r.Unexpected != "" {
			d.stop()
			return nil, nil, fmt.Errorf("traced op %d (%s) failed: status %d %s", o.ID, o.Kind, r.Status, r.Unexpected)
		}
		g.settle(o, r)
		lr.observe(tr, layerDelayd, o, start, start.Add(el), i >= w.traceWarm, r, 0, 0, 0, 0)
		stream = append(stream, o)
	}
	if err := d.stop(); err != nil {
		return nil, nil, fmt.Errorf("stopping traced delayd: %w", err)
	}
	return stream, lr, nil
}

// newState boots an in-process admission state exactly as delayd does:
// one shard, standing connections pre-admitted in spec order, baseline
// warmed.
func newState(servers []server.Server, analyzer analysis.Analyzer, standing []topo.Connection) (*service.State, error) {
	st, err := service.NewState(servers, analyzer)
	if err != nil {
		return nil, err
	}
	for _, c := range standing {
		d, err := st.Admit(c)
		if err != nil {
			return nil, err
		}
		if !d.Admitted {
			return nil, fmt.Errorf("standing connection %s rejected: %s", c.Name, d.Reason)
		}
	}
	return st, st.WarmBaseline()
}

func serviceReplayer(servers []server.Server, analyzer analysis.Analyzer, standing []topo.Connection) replayer {
	return func(tr *tracer, stream []op, warm int) (*layerRun, error) {
		st, err := newState(servers, analyzer, standing)
		if err != nil {
			return nil, err
		}
		srv, err := service.NewServer(service.Config{State: st, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			return nil, err
		}
		lr := newLayerRun()
		var mc memCounter
		for i, o := range stream {
			rq := encodeOp(o)
			req := httptest.NewRequest(rq.Method, rq.Path, bytes.NewReader(rq.Body))
			if rq.Body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			rec := httptest.NewRecorder()
			m0, b0 := mc.read()
			start := time.Now()
			srv.ServeHTTP(rec, req)
			end := time.Now()
			m1, b1 := mc.read()
			lr.observe(tr, layerService, o, start, end, i >= warm, decodeResponse(o, rec.Code, rec.Body.Bytes()), m0, b0, m1, b1)
		}
		return lr, nil
	}
}

func admissionReplayer(servers []server.Server, analyzer analysis.Analyzer, standing []topo.Connection) replayer {
	return func(tr *tracer, stream []op, warm int) (*layerRun, error) {
		st, err := newState(servers, analyzer, standing)
		if err != nil {
			return nil, err
		}
		eng := st.Engine()
		index, err := netspec.ServerIndex(servers)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		lr := newLayerRun()
		var mc memCounter
		for i, o := range stream {
			call, err := admissionCall(eng, index, o)
			if err != nil {
				return nil, err
			}
			m0, b0 := mc.read()
			start := time.Now()
			r, err := call(ctx)
			end := time.Now()
			m1, b1 := mc.read()
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", o.ID, err)
			}
			r.Count = eng.Count()
			lr.observe(tr, layerAdmission, o, start, end, i >= warm, r, m0, b0, m1, b1)
		}
		return lr, nil
	}
}

// admissionCall resolves an op's specs (the service layer's job) and
// returns the bare engine call.
func admissionCall(eng *admission.ShardedEngine, index map[string]int, o op) (func(context.Context) (*result, error), error) {
	switch o.Kind {
	case opAdmit:
		cand, err := netspec.ConnectionFromSpec(&o.Conn, index)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) (*result, error) {
			d, err := eng.AdmitContext(ctx, cand)
			return &result{Admitted: []bool{d.Admitted}, Bounds: [][]float64{d.Bounds}}, err
		}, nil
	case opRelease:
		return func(context.Context) (*result, error) {
			_, ok := eng.Release(o.Name)
			return &result{Released: []bool{ok}}, nil
		}, nil
	case opBatch:
		ops := make([]admission.Op, len(o.Batch))
		for i, bo := range o.Batch {
			if bo.Op == "release" {
				ops[i] = admission.Op{Kind: admission.OpRelease, Name: bo.Name}
				continue
			}
			cand, err := netspec.ConnectionFromSpec(bo.Connection, index)
			if err != nil {
				return nil, err
			}
			ops[i] = admission.Op{Kind: admission.OpAdmit, Candidate: cand}
		}
		return func(ctx context.Context) (*result, error) {
			br, err := eng.ApplyBatch(ctx, ops)
			if err != nil {
				return nil, err
			}
			r := &result{}
			for i, res := range br.Results {
				if ops[i].Kind == admission.OpRelease {
					r.Released = append(r.Released, res.Released)
					continue
				}
				mb := res.Decision.MaxBound()
				if res.Err != nil {
					mb = nanBound
				}
				r.Admitted = append(r.Admitted, res.Err == nil && res.Decision.Admitted)
				r.Bounds = append(r.Bounds, []float64{mb})
			}
			return r, nil
		}, nil
	default:
		return func(context.Context) (*result, error) {
			conns, _ := eng.ReadView()
			return &result{Count: len(conns)}, nil
		}, nil
	}
}

func analysisReplayer(servers []server.Server, analyzer analysis.Analyzer, standing []topo.Connection) replayer {
	return func(tr *tracer, stream []op, warm int) (*layerRun, error) {
		inc, ok := analyzer.(analysis.Incremental)
		if !ok {
			return nil, fmt.Errorf("analyzer %s has no incremental path", analyzer.Name())
		}
		index, err := netspec.ServerIndex(servers)
		if err != nil {
			return nil, err
		}
		a := &analysisState{servers: servers, conns: append([]topo.Connection(nil), standing...)}
		if a.base, err = inc.NewBaseline(a.net()); err != nil {
			return nil, err
		}
		lr := newLayerRun()
		var mc memCounter
		for i, o := range stream {
			if o.Kind == opRead {
				lr.sigs[o.ID] = ""
				continue
			}
			var subs []func(parent int) error
			r := &result{}
			add := func(spec *netspec.ConnectionSpec, name string) error {
				if spec == nil {
					subs = append(subs, func(parent int) error { return a.release(tr, o.ID, parent, name, r) })
					return nil
				}
				cand, err := netspec.ConnectionFromSpec(spec, index)
				if err != nil {
					return err
				}
				subs = append(subs, func(parent int) error { return a.admit(tr, o.ID, parent, cand, r, o.Kind == opBatch) })
				return nil
			}
			switch o.Kind {
			case opAdmit:
				err = add(&o.Conn, "")
			case opRelease:
				err = add(nil, o.Name)
			case opBatch:
				for _, bo := range o.Batch {
					if err = add(bo.Connection, bo.Name); err != nil {
						break
					}
				}
			}
			if err != nil {
				return nil, err
			}
			parent := -1
			if o.Kind == opBatch {
				parent = o.ID
			}
			m0, b0 := mc.read()
			start := time.Now()
			for _, sub := range subs {
				if err := sub(parent); err != nil {
					return nil, fmt.Errorf("op %d: %w", o.ID, err)
				}
			}
			end := time.Now()
			m1, b1 := mc.read()
			r.Count = len(a.conns)
			lr.observe(tr, layerAnalysis, o, start, end, i >= warm, r, m0, b0, m1, b1)
		}
		return lr, nil
	}
}

// analysisState is the analysis layer's view of the admitted set: the
// connections in admission order and their baseline.
type analysisState struct {
	servers []server.Server
	conns   []topo.Connection
	base    *analysis.Baseline
}

func (a *analysisState) net(extra ...topo.Connection) *topo.Network {
	conns := append(append([]topo.Connection(nil), a.conns...), extra...)
	return &topo.Network{Servers: a.servers, Connections: conns}
}

// admit extends the baseline with cand and promotes it when every
// deadline holds — the admission rule, applied to the analysis result.
// A batch reports the trial's largest bound, a single admit all bounds.
func (a *analysisState) admit(tr *tracer, opID, parent int, cand topo.Connection, r *result, maxOnly bool) error {
	trial := a.net(cand)
	if !trial.Stable() {
		r.Admitted = append(r.Admitted, false)
		if maxOnly {
			r.Bounds = append(r.Bounds, []float64{nanBound})
		} else {
			r.Bounds = append(r.Bounds, nil)
		}
		return nil
	}
	start := time.Now()
	ext, err := a.base.ExtendContext(context.Background(), cand)
	if err != nil {
		return err
	}
	bounds := ext.Result().Bounds
	ok := true
	for i, c := range trial.Connections {
		if c.Deadline > 0 && !(bounds[i] <= c.Deadline) {
			ok = false
			break
		}
	}
	if ok {
		a.base = ext.Promote()
		a.conns = trial.Connections
	}
	if parent >= 0 {
		tr.add(opID, layerAnalysis, "extend", start, time.Now(), parent)
	}
	r.Admitted = append(r.Admitted, ok)
	if maxOnly {
		r.Bounds = append(r.Bounds, []float64{admission.Decision{Bounds: bounds}.MaxBound()})
	} else {
		r.Bounds = append(r.Bounds, bounds)
	}
	return nil
}

func (a *analysisState) release(tr *tracer, opID, parent int, name string, r *result) error {
	idx := -1
	for i, c := range a.conns {
		if c.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		r.Released = append(r.Released, false)
		return nil
	}
	start := time.Now()
	ext, err := a.base.ShrinkContext(context.Background(), idx)
	if err != nil {
		return err
	}
	a.base = ext.Promote()
	a.conns = append(append([]topo.Connection(nil), a.conns[:idx]...), a.conns[idx+1:]...)
	if parent >= 0 {
		tr.add(opID, layerAnalysis, "shrink", start, time.Now(), parent)
	}
	r.Released = append(r.Released, true)
	return nil
}

// agreement checks that every op's decisions, bounds and counts are
// identical at every layer that ran it.
func agreement(stream []op, runs map[string]*layerRun) []string {
	var problems []string
	for _, o := range stream {
		want := runs[layerDelayd].sigs[o.ID]
		for _, layer := range layers[1:] {
			got, ok := runs[layer].sigs[o.ID]
			if layer == layerAnalysis && o.Kind == opRead {
				continue
			}
			if !ok || got != want {
				problems = append(problems, fmt.Sprintf("op %d (%s): %s says %q, %s says %q",
					o.ID, o.Kind, layerDelayd, want, layer, got))
			}
		}
		if len(problems) >= 5 {
			break
		}
	}
	return problems
}

// ladder computes each layer's p50 and self p50 per op class, and what the
// medians leave unattributed.
func ladder(measured []op, runs map[string]*layerRun) map[string]float64 {
	m := map[string]float64{}
	for _, k := range []opKind{opAdmit, opRelease, opBatch, opRead} {
		byLayer := map[string]map[int]float64{}
		for _, layer := range layers {
			sub := map[int]float64{}
			for _, o := range measured {
				if t, ok := runs[layer].times[o.ID]; ok && o.Kind == k {
					sub[o.ID] = t
				}
			}
			byLayer[layer] = sub
		}
		rest := median(values(byLayer[layerAnalysis]))
		if k == opRead {
			rest = 0
		} else {
			m["analysis."+k.String()+".p50_us"] = rest
		}
		for i, layer := range layers[:3] {
			self := selfTimes(byLayer[layer], byLayer[layers[i+1]])
			m[layer+"."+k.String()+".p50_us"] = median(values(byLayer[layer]))
			m[layer+"."+k.String()+".self_p50_us"] = median(values(self))
			rest += m[layer+"."+k.String()+".self_p50_us"]
		}
		m["trace."+k.String()+".unattributed_us"] = m[layerDelayd+"."+k.String()+".p50_us"] - rest
	}
	return m
}
