// The scenario executor behind every delayload phase: an op source run
// under an arrival policy, with each op's latency timed from its scheduled
// send time. In a closed loop the scheduled time is the moment a worker is
// ready to send; in an open loop it is the Poisson arrival instant, so a
// backlog that delays dispatch or completion is charged to the ops that
// suffered it instead of silently stretching the schedule (coordinated
// omission).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	stdnet "net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
)

// policy is a scenario's arrival process. A closed loop (workers > 0) runs
// that many workers, each sending its next op when the previous one
// returns, until window passes or, when ops > 0, each has sent ops. An open
// loop (workers == 0) sends Poisson arrivals at rate (RNG seeded by seed)
// over window, each at its scheduled instant however many are in flight.
type policy struct {
	workers int
	ops     int
	rate    float64
	window  time.Duration
	seed    int64
}

// op is one operation against the daemon. It reports the class its latency
// is recorded under and whether an admission test said no.
type op func(d *daemon) (class string, rejected bool, err error)

// source yields the next op of a lane: worker i of a closed loop, or lane 0
// for every arrival of an open loop. Sources are called from one goroutine
// per lane; the ops they return may run concurrently in an open loop.
type source func(lane int) op

// recorder accumulates one class's latencies and failures.
type recorder struct {
	latMs    []float64
	errors   int
	rejected int
}

func (r *recorder) merge(o *recorder) {
	r.latMs = append(r.latMs, o.latMs...)
	r.errors += o.errors
	r.rejected += o.rejected
}

// outcome is what one scenario run measured.
type outcome struct {
	classes map[string]*recorder
	sent    int
	elapsed time.Duration
	lastErr error
}

// class returns the samples of one class (empty when it never ran).
func (o *outcome) class(name string) *recorder {
	if r, ok := o.classes[name]; ok {
		return r
	}
	return &recorder{}
}

// err reports the run's last failure, if any op failed.
func (o *outcome) err() error {
	for _, r := range o.classes {
		if r.errors > 0 {
			return o.lastErr
		}
	}
	return nil
}

func (o *outcome) logLastError() {
	if err := o.err(); err != nil {
		fmt.Fprintln(os.Stderr, "delayload: last error:", err)
	}
}

// execute runs next's ops against d under pol.
func execute(d *daemon, pol policy, next source) *outcome {
	out := &outcome{classes: make(map[string]*recorder)}
	var mu sync.Mutex
	fire := func(o op, sched time.Time) {
		class, rejected, err := o(d)
		lat := float64(time.Since(sched).Microseconds()) / 1000
		mu.Lock()
		defer mu.Unlock()
		out.sent++
		r, ok := out.classes[class]
		if !ok {
			r = &recorder{}
			out.classes[class] = r
		}
		if err != nil {
			r.errors++
			out.lastErr = fmt.Errorf("%s: %w", class, err)
			return
		}
		r.latMs = append(r.latMs, lat)
		if rejected {
			r.rejected++
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	if pol.workers > 0 {
		end := start.Add(pol.window)
		for lane := 0; lane < pol.workers; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; (pol.ops > 0 && n < pol.ops) || (pol.ops == 0 && time.Now().Before(end)); n++ {
					o := next(lane)
					fire(o, time.Now())
				}
			}()
		}
	} else {
		rng := rand.New(rand.NewSource(pol.seed))
		for t := rng.ExpFloat64() / pol.rate; t < pol.window.Seconds(); t += rng.ExpFloat64() / pol.rate {
			// Draw the op before sleeping so its generation never makes
			// the send late.
			o := next(0)
			sched := start.Add(time.Duration(t * float64(time.Second)))
			time.Sleep(time.Until(sched))
			wg.Add(1)
			go func() { defer wg.Done(); fire(o, sched) }()
		}
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// daemon is a client of one delayd network's /v2 API.
type daemon struct {
	host   string // http://host:port
	prefix string // host plus /v2/networks/{id}
	hc     *http.Client
}

func newDaemon(host, network string) *daemon {
	return &daemon{host: host, prefix: host + "/v2/networks/" + network, hc: &http.Client{Timeout: 30 * time.Second}}
}

// call sends one request under the network prefix and decodes a 200 reply
// into out (when non-nil); any other status is an error.
func (d *daemon) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, d.prefix+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (d *daemon) admit(spec netspec.ConnectionSpec) (bool, error) {
	var ar service.AdmitResponse
	err := d.call(http.MethodPost, "/connections", service.AdmitRequest{Connection: spec}, &ar)
	return ar.Admitted, err
}

func (d *daemon) release(name string) error {
	return d.call(http.MethodDelete, "/connections/"+url.PathEscape(name), nil, nil)
}

func (d *daemon) batch(ops []service.BatchOp) (service.BatchResponse, error) {
	var br service.BatchResponse
	err := d.call(http.MethodPost, "/batch", service.BatchRequest{Operations: ops}, &br)
	return br, err
}

// tandem builds an n-server unit-capacity FIFO tandem named s0..s(n-1).
func tandem(n int) []server.Server {
	servers := make([]server.Server, n)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("s%d", i), Capacity: 1, Discipline: server.FIFO}
	}
	return servers
}

// selfServe starts an in-process delayd over servers on a loopback
// listener and returns a client of its default network and a shutdown
// func.
func selfServe(servers []server.Server, analyzer analysis.Analyzer) (*daemon, func(), error) {
	state, err := service.NewState(servers, analyzer)
	if err != nil {
		return nil, nil, err
	}
	if err := state.WarmBaseline(); err != nil {
		return nil, nil, err
	}
	api, err := service.NewServer(service.Config{
		State:  state,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, nil, err
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: api}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return newDaemon("http://"+ln.Addr().String(), service.DefaultNetworkID), shutdown, nil
}

// connSpec builds a generated connection over path.
func connSpec(name string, path []string, rho, deadline float64) netspec.ConnectionSpec {
	hops := make([]json.RawMessage, len(path))
	for i, p := range path {
		hops[i], _ = json.Marshal(p)
	}
	return netspec.ConnectionSpec{Name: name, Sigma: 1, Rho: rho, AccessRate: 1, Path: hops, Deadline: deadline}
}

// churn is the admit/release/batch op source of the closed loop and the
// open-loop sweep. Each lane draws ops by the mix
// weights over its own fabric servers and releases only connections it
// admitted itself, so its releases never race another lane's.
type churn struct {
	mix           [3]int // admit, release, batch weights
	rho, deadline float64
	lanes         []*lane
}

type lane struct {
	prefix string
	rng    *rand.Rand
	names  []string // fabric servers in path order
	seq    int
	mu     sync.Mutex
	pool   []string // admitted connections this lane may release
}

// newChurn builds a source of n lanes; lane i's RNG derives from seed and
// its connections run over names(i). Connection names start with prefix.
func newChurn(prefix string, mix [3]int, cfg *config, n int, seed int64, names func(int) []string) *churn {
	c := &churn{mix: mix, rho: cfg.rho, deadline: cfg.deadline}
	for i := 0; i < n; i++ {
		c.lanes = append(c.lanes, &lane{
			prefix: fmt.Sprintf("%s%dn", prefix, i),
			rng:    rand.New(rand.NewSource(seed + int64(i)*7919)),
			names:  names(i),
		})
	}
	return c
}

// spec generates one candidate on a random contiguous 2- or 3-hop
// sub-path of the lane's servers.
func (c *churn) spec(l *lane) netspec.ConnectionSpec {
	l.seq++
	hops := min(2, len(l.names))
	if len(l.names) > 2 && l.rng.Intn(2) == 0 {
		hops = 3
	}
	start := l.rng.Intn(len(l.names) - hops + 1)
	return connSpec(fmt.Sprintf("%s%d", l.prefix, l.seq), l.names[start:start+hops], c.rho, c.deadline)
}

func (l *lane) add(name string) {
	l.mu.Lock()
	l.pool = append(l.pool, name)
	l.mu.Unlock()
}

// take removes the pool entry chosen by pick (any non-negative draw).
func (l *lane) take(pick int) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pool) == 0 {
		return "", false
	}
	i := pick % len(l.pool)
	name := l.pool[i]
	l.pool = append(l.pool[:i], l.pool[i+1:]...)
	return name, true
}

func (l *lane) admit(d *daemon, spec netspec.ConnectionSpec) (string, bool, error) {
	ok, err := d.admit(spec)
	if ok {
		l.add(spec.Name)
	}
	return "admit", err == nil && !ok, err
}

func (c *churn) next(i int) op {
	l := c.lanes[i]
	spec, pick := c.spec(l), l.rng.Int()
	switch n := l.rng.Intn(c.mix[0] + c.mix[1] + c.mix[2]); {
	case n < c.mix[0]:
		return func(d *daemon) (string, bool, error) { return l.admit(d, spec) }
	case n < c.mix[0]+c.mix[1]:
		// With nothing to release yet, the lane admits instead.
		return func(d *daemon) (string, bool, error) {
			name, ok := l.take(pick)
			if !ok {
				return l.admit(d, spec)
			}
			return "release", false, d.release(name)
		}
	default:
		specB := c.spec(l)
		return func(d *daemon) (string, bool, error) {
			ops := []service.BatchOp{{Op: "admit", Connection: &spec}, {Op: "admit", Connection: &specB}}
			if name, ok := l.take(pick); ok {
				ops = append(ops, service.BatchOp{Op: "release", Name: name})
			}
			br, err := d.batch(ops)
			if err != nil {
				return "batch", false, err
			}
			for _, res := range br.Results {
				if res.Op == "admit" && res.Status == service.BatchStatusAdmitted {
					l.add(ops[res.Index].Connection.Name)
				}
			}
			return "batch", false, nil
		}
	}
}

// prefill admits perBlock connections into every block before the timed
// window, so the engines start with a standing admitted set, and hands
// them out as the initial release pools of the lanes pinned to that block
// (lane i runs in block i mod len(blocks)). A block that fills up early
// keeps the part that fit.
func (c *churn) prefill(d *daemon, blocks [][]string, perBlock int) error {
	for b, names := range blocks {
		var owners []*lane
		for i, l := range c.lanes {
			if i%len(blocks) == b {
				owners = append(owners, l)
			}
		}
		hops := min(2, len(names))
		for j := 0; j < perBlock; j++ {
			start := j % (len(names) - hops + 1)
			spec := connSpec(fmt.Sprintf("pf%dx%d", b, j), names[start:start+hops], c.rho, c.deadline)
			ok, err := d.admit(spec)
			if err != nil {
				return fmt.Errorf("admitting %s: %w", spec.Name, err)
			}
			if !ok {
				break
			}
			if len(owners) > 0 {
				owners[j%len(owners)].add(spec.Name)
			}
		}
	}
	return nil
}

// armSteps is the length of one batch-comparison trial in ops.
const armSteps = 4

// batchArms is the batch comparison's op source, for one closed-loop
// worker. Each trial is four ops: N sequential admissions (class
// "sequential"), a cleanup batch releasing them, the same N admissions as
// one pipelined envelope (class "batch"), and another cleanup. Candidates
// are spread round-robin over disjoint 2-server pairs so the per-op
// analysis cost stays flat as the envelope grows: the comparison then
// isolates what pipelining removes — the per-op round trip, decode, and
// snapshot commit — instead of the incremental analysis both arms pay
// identically.
func batchArms(n int, names []string, rho, deadline float64) source {
	pairs := max(1, len(names)/2)
	step, seq := 0, 0
	var specs []netspec.ConnectionSpec
	var cleanup []service.BatchOp
	return func(int) op {
		defer func() { step = (step + 1) % armSteps }()
		switch step {
		case 0:
			specs = make([]netspec.ConnectionSpec, n)
			cleanup = make([]service.BatchOp, n)
			for i := range specs {
				lo := 2 * (seq % pairs)
				hi := min(lo+1, len(names)-1)
				seq++
				specs[i] = connSpec(fmt.Sprintf("bc%d", seq), names[lo:hi+1], rho, deadline)
				cleanup[i] = service.BatchOp{Op: "release", Name: specs[i].Name}
			}
			s := specs
			return func(d *daemon) (string, bool, error) {
				for i := range s {
					if _, err := d.admit(s[i]); err != nil {
						return "sequential", false, err
					}
				}
				return "sequential", false, nil
			}
		case 2:
			ops := make([]service.BatchOp, n)
			for i := range specs {
				ops[i] = service.BatchOp{Op: "admit", Connection: &specs[i]}
			}
			return func(d *daemon) (string, bool, error) {
				br, err := d.batch(ops)
				if err == nil && br.Admitted != n {
					err = fmt.Errorf("admitted %d of %d (errors %d)", br.Admitted, n, br.Errors)
				}
				return "batch", false, err
			}
		default:
			rel := cleanup
			return func(d *daemon) (string, bool, error) {
				_, err := d.batch(rel)
				return "cleanup", false, err
			}
		}
	}
}
