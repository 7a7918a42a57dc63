package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
	"delaycalc/internal/topo"
)

// apiPrefix scopes every operation to the daemon's default network.
const apiPrefix = "/v2/networks/" + service.DefaultNetworkID

// readLimit is the page size of a read operation.
const readLimit = 50

// serving describes one serving workload: the fabric the daemon boots, the
// candidates the load generator draws, and the open-loop ladder.
type serving struct {
	name string
	algo string // delayd -algo
	// tandem > 0 boots delayd's own n-server tandem (-tandem); otherwise the
	// harness writes a spec file with standing connections.
	tandem int
	// blocks lists the server names of each block operations may touch;
	// candidates take contiguous 2-3-hop sub-paths inside one block.
	blocks        [][]string
	rho, deadline float64
	// rates is the open-loop ladder in ops/s (the middle rung is the
	// reference rate) and limitMs its p99 latency limit.
	rates   []float64
	limitMs float64
	// startups is how many times set-up is timed per run.
	startups int
	// warmOps are run before the closed-loop window so the admitted set
	// reaches its steady size; traceWarm and traceOps size the traced run.
	warmOps   int
	traceWarm int
	traceOps  int
	// spec is the generated netspec (nil with -tandem) and standing
	// the pre-admitted connection names per touched block.
	spec     *netspec.Spec
	standing [][]string
}

// Block fabric parameters for churn-blocks8: topo.DisjointBlocks(8, 3, 0.5)
// with blocksPerBlock standing connections per block. Operations touch
// only the first activeBlocks blocks; the rest is standing state.
const (
	blocksCount    = 8
	blockSwitches  = 3
	blocksPerBlock = 100
	activeBlocks   = 2
)

// newServing builds the named serving workload's inputs from the seed.
func newServing(name string, seed int64) (*serving, error) {
	switch name {
	case "churn-tandem16":
		w := &serving{
			name: name, algo: "decomposed", tandem: 16,
			rho: 0.002, deadline: 100,
			rates: []float64{100, 300, 1600}, limitMs: 100,
			startups: 5, warmOps: 2500, traceWarm: 1500, traceOps: 3000,
		}
		net, err := topo.PaperTandem(w.tandem, 0.5)
		if err != nil {
			return nil, err
		}
		w.blocks = [][]string{serverNames(net.Servers)}
		w.standing = [][]string{nil}
		return w, nil
	case "churn-blocks8":
		w := &serving{
			name: name, algo: "integrated",
			rho: 0.0001, deadline: 220,
			rates: []float64{30, 80, 400}, limitMs: 200,
			startups: 3, warmOps: 300, traceWarm: 300, traceOps: 600,
		}
		if err := w.buildBlocks(seed); err != nil {
			return nil, err
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown serving workload %q", name)
}

func serverNames(servers []server.Server) []string {
	names := make([]string, len(servers))
	for i, s := range servers {
		names[i] = s.Name
	}
	return names
}

// buildBlocks generates the churn-blocks8 spec: the block fabric plus
// blocksPerBlock standing connections in every block, on seeded random
// sub-paths.
func (w *serving) buildBlocks(seed int64) error {
	net, err := topo.DisjointBlocks(blocksCount, blockSwitches, 0.5)
	if err != nil {
		return err
	}
	// DisjointBlocks' own connections carry no deadline; delayd would skip
	// them, so the spec leaves them out.
	net.Connections = nil
	spec := netspec.ToSpec(net)
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	for b := 0; b < blocksCount; b++ {
		names := serverNames(net.Servers[b*blockSwitches : (b+1)*blockSwitches])
		var standing []string
		for j := 0; j < blocksPerBlock; j++ {
			c := candidate(rng, names, fmt.Sprintf("s%d.%d", b, j), w.rho, w.deadline)
			spec.Connections = append(spec.Connections, c)
			standing = append(standing, c.Name)
		}
		if b < activeBlocks {
			w.blocks = append(w.blocks, names)
			w.standing = append(w.standing, standing)
		}
	}
	w.spec = spec
	return nil
}

// candidate draws one connection on a random contiguous 2- or 3-hop
// sub-path of names.
func candidate(rng *rand.Rand, names []string, name string, rho, deadline float64) netspec.ConnectionSpec {
	hops := 2 + rng.Intn(2)
	if hops > len(names) {
		hops = len(names)
	}
	start := rng.Intn(len(names) - hops + 1)
	path := make([]json.RawMessage, hops)
	for i, n := range names[start : start+hops] {
		path[i], _ = json.Marshal(n)
	}
	return netspec.ConnectionSpec{Name: name, Sigma: 1, Rho: rho, AccessRate: 1, Path: path, Deadline: deadline}
}

// daemonArgs returns delayd's flags for this workload; specPath is where
// writeSpec put the spec.
func (w *serving) daemonArgs(specPath string) []string {
	if w.tandem > 0 {
		return []string{"-algo", w.algo, "-tandem", fmt.Sprint(w.tandem)}
	}
	return []string{"-algo", w.algo, "-spec", specPath}
}

// writeSpec writes the generated spec (if any) to path.
func (w *serving) writeSpec(path string) error {
	if w.spec == nil {
		return nil
	}
	data, err := json.Marshal(w.spec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opKind is the class of one load-generator operation.
type opKind int

const (
	opAdmit opKind = iota
	opRelease
	opBatch
	opRead
)

var opNames = []string{"admit", "release", "batch", "read"}

func (k opKind) String() string { return opNames[k] }

// op is one concrete operation of the stream, fully resolved: the traced
// run replays the same ops through every layer.
type op struct {
	ID    int
	Kind  opKind
	Block int
	Conn  netspec.ConnectionSpec // admit
	Name  string                 // release
	Batch []service.BatchOp      // batch
}

// pool holds the admitted connection names of one block that the
// generator may release. Takes remove the name, so two concurrent
// releases never race for one connection.
type pool struct {
	mu    sync.Mutex
	names []string
}

func (p *pool) add(names ...string) {
	p.mu.Lock()
	p.names = append(p.names, names...)
	p.mu.Unlock()
}

func (p *pool) take(rng *rand.Rand) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.names) == 0 {
		return "", false
	}
	i := rng.Intn(len(p.names))
	name := p.names[i]
	p.names[i] = p.names[len(p.names)-1]
	p.names = p.names[:len(p.names)-1]
	return name, true
}

// generator draws operations in the admit:release:batch:read = 5:3:1:1
// mix. A release draws from its block's pool and becomes an admit when the
// pool is empty; a batch is two admits plus, when available, one release.
type generator struct {
	w     *serving
	pools []*pool
	mu    sync.Mutex
	ids   int
}

func newGenerator(w *serving) *generator {
	g := &generator{w: w}
	for _, names := range w.standing {
		p := &pool{}
		p.add(names...)
		g.pools = append(g.pools, p)
	}
	return g
}

func (g *generator) nextID() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ids++
	return g.ids
}

// next draws one operation for block from rng. Names are unique per run:
// prefix identifies the stream, the op id the operation.
func (g *generator) next(rng *rand.Rand, block int, prefix string) op {
	o := op{ID: g.nextID(), Block: block}
	cand := func(k int) netspec.ConnectionSpec {
		return candidate(rng, g.w.blocks[block], fmt.Sprintf("%s%d.%d", prefix, o.ID, k), g.w.rho, g.w.deadline)
	}
	switch n := rng.Intn(10); {
	case n < 5:
		o.Kind, o.Conn = opAdmit, cand(0)
	case n < 8:
		o.Kind = opRelease
		name, ok := g.pools[block].take(rng)
		if !ok {
			o.Kind, o.Conn = opAdmit, cand(0)
			break
		}
		o.Name = name
	case n < 9:
		o.Kind = opBatch
		a, b := cand(0), cand(1)
		o.Batch = []service.BatchOp{{Op: "admit", Connection: &a}, {Op: "admit", Connection: &b}}
		if name, ok := g.pools[block].take(rng); ok {
			o.Batch = append(o.Batch, service.BatchOp{Op: "release", Name: name})
		}
	default:
		o.Kind = opRead
	}
	return o
}

// settle returns the outcome's admitted names to the pool so later
// releases can pick them.
func (g *generator) settle(o op, r *result) {
	if r.Failed || len(r.Admitted) == 0 {
		return
	}
	p := g.pools[o.Block]
	switch o.Kind {
	case opAdmit:
		if r.Admitted[0] {
			p.add(o.Conn.Name)
		}
	case opBatch:
		k := 0
		for _, bo := range o.Batch {
			if bo.Op != "admit" {
				continue
			}
			if r.Admitted[k] {
				p.add(bo.Connection.Name)
			}
			k++
		}
	}
}
