package topo

import (
	"fmt"
	"math/rand"

	"delaycalc/internal/server"
	"delaycalc/internal/traffic"
)

// TandemSpec parameterizes the paper's evaluation topology (Section 4.1):
// a chain of n 3x3 switches whose middle output ports form a tandem of FIFO
// servers. Connection 0 traverses every server; at each switch k a 1-hop
// cross connection a_k joins for one server and a 2-hop cross connection
// b_k joins for two servers (truncated at the network edge). Every interior
// server carries exactly four connections — connection 0, a_j, b_j and
// b_{j-1} — as stated in the paper, and there are 2n+1 connections total.
type TandemSpec struct {
	Switches   int     // n, number of switches (hops of connection 0)
	Sigma      float64 // token bucket depth of every source (paper: 1)
	Rho        float64 // token rate of every source (paper: U/4)
	Capacity   float64 // line rate of every server (paper: 1)
	Discipline server.Discipline
	// Priority0 and PriorityCross set static-priority classes when
	// Discipline is StaticPriority (ignored otherwise).
	Priority0     int
	PriorityCross int
}

// PaperTandem builds the evaluation network for a given size n and
// workload U (interior link utilization): unit bucket depth, unit
// capacity, per-connection rate U/4 so that the four connections sharing
// each interior link load it to exactly U.
func PaperTandem(n int, load float64) (*Network, error) {
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("topo: load %g outside (0, 1)", load)
	}
	return Tandem(TandemSpec{
		Switches:   n,
		Sigma:      1,
		Rho:        load / 4,
		Capacity:   1,
		Discipline: server.FIFO,
	})
}

// Tandem builds the paper's tandem network from an explicit spec.
func Tandem(spec TandemSpec) (*Network, error) {
	n := spec.Switches
	if n < 1 {
		return nil, fmt.Errorf("topo: tandem needs at least 1 switch, got %d", n)
	}
	if spec.Capacity <= 0 {
		return nil, fmt.Errorf("topo: non-positive capacity %g", spec.Capacity)
	}
	if spec.Rho <= 0 || spec.Sigma < 0 {
		return nil, fmt.Errorf("topo: invalid source parameters sigma=%g rho=%g", spec.Sigma, spec.Rho)
	}
	net := &Network{}
	for k := 0; k < n; k++ {
		net.Servers = append(net.Servers, server.Server{
			Name:       fmt.Sprintf("sw%d.mid", k),
			Capacity:   spec.Capacity,
			Discipline: spec.Discipline,
		})
	}
	bucket := traffic.TokenBucket{Sigma: spec.Sigma, Rho: spec.Rho}
	path0 := make([]int, n)
	for k := range path0 {
		path0[k] = k
	}
	net.Connections = append(net.Connections, Connection{
		Name:       "conn0",
		Bucket:     bucket,
		AccessRate: spec.Capacity,
		Path:       path0,
		Priority:   spec.Priority0,
		Rate:       spec.Rho,
	})
	for k := 0; k < n; k++ {
		net.Connections = append(net.Connections, Connection{
			Name:       fmt.Sprintf("a%d", k),
			Bucket:     bucket,
			AccessRate: spec.Capacity,
			Path:       []int{k},
			Priority:   spec.PriorityCross,
			Rate:       spec.Rho,
		})
		bPath := []int{k}
		if k+1 < n {
			bPath = append(bPath, k+1)
		}
		net.Connections = append(net.Connections, Connection{
			Name:       fmt.Sprintf("b%d", k),
			Bucket:     bucket,
			AccessRate: spec.Capacity,
			Path:       bPath,
			Priority:   spec.PriorityCross,
			Rate:       spec.Rho,
		})
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// ParkingLot builds the classic "parking lot" stress topology: a main
// connection over n unit-capacity FIFO servers with one fresh single-hop
// cross connection per server. All sources share the same token bucket.
func ParkingLot(n int, sigma, rho, capacity float64) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: parking lot needs at least 1 server")
	}
	net := &Network{}
	for k := 0; k < n; k++ {
		net.Servers = append(net.Servers, server.Server{
			Name:       fmt.Sprintf("pl%d", k),
			Capacity:   capacity,
			Discipline: server.FIFO,
		})
	}
	bucket := traffic.TokenBucket{Sigma: sigma, Rho: rho}
	main := make([]int, n)
	for k := range main {
		main[k] = k
	}
	net.Connections = append(net.Connections, Connection{
		Name: "main", Bucket: bucket, AccessRate: capacity, Path: main, Rate: rho,
	})
	for k := 0; k < n; k++ {
		net.Connections = append(net.Connections, Connection{
			Name: fmt.Sprintf("x%d", k), Bucket: bucket, AccessRate: capacity, Path: []int{k}, Rate: rho,
		})
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// SinkTree builds a balanced binary aggregation tree of the given depth:
// every leaf-to-root path is a connection, and interior servers multiplex
// the two subtrees below them. depth 1 is a single server with two
// connections.
func SinkTree(depth int, sigma, rho, capacity float64) (*Network, error) {
	if depth < 1 {
		return nil, fmt.Errorf("topo: sink tree needs depth >= 1")
	}
	net := &Network{}
	// Server indices follow a heap layout rooted at 0; leaves are at the
	// deepest level. Traffic flows leaf -> root, so paths list servers
	// bottom-up.
	total := 1<<depth - 1
	for i := 0; i < total; i++ {
		net.Servers = append(net.Servers, server.Server{
			Name:       fmt.Sprintf("t%d", i),
			Capacity:   capacity,
			Discipline: server.FIFO,
		})
	}
	bucket := traffic.TokenBucket{Sigma: sigma, Rho: rho}
	firstLeaf := 1<<(depth-1) - 1
	for leaf := firstLeaf; leaf < total; leaf++ {
		// Two connections enter at each leaf (its two input ports).
		var path []int
		for v := leaf; ; v = (v - 1) / 2 {
			path = append(path, v)
			if v == 0 {
				break
			}
		}
		for dup := 0; dup < 2; dup++ {
			net.Connections = append(net.Connections, Connection{
				Name:       fmt.Sprintf("leaf%d.%d", leaf, dup),
				Bucket:     bucket,
				AccessRate: capacity,
				Path:       append([]int(nil), path...),
				Rate:       rho,
			})
		}
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// RandomFeedforward builds a random feedforward network: servers are
// totally ordered and every connection's path is an increasing sequence of
// server indices, which guarantees acyclicity. Bucket rates are scaled so
// that no server exceeds the requested utilization.
func RandomFeedforward(nServers, nConns int, util float64, seed int64) (*Network, error) {
	if nServers < 1 || nConns < 1 {
		return nil, fmt.Errorf("topo: need at least one server and one connection")
	}
	if util <= 0 || util >= 1 {
		return nil, fmt.Errorf("topo: utilization %g outside (0, 1)", util)
	}
	rng := rand.New(rand.NewSource(seed))
	net := &Network{}
	for i := 0; i < nServers; i++ {
		net.Servers = append(net.Servers, server.Server{
			Name:       fmt.Sprintf("r%d", i),
			Capacity:   1,
			Discipline: server.FIFO,
		})
	}
	load := make([]int, nServers) // connections per server
	paths := make([][]int, nConns)
	for c := 0; c < nConns; c++ {
		hops := 1 + rng.Intn(nServers)
		start := rng.Intn(nServers)
		var path []int
		for s := start; s < nServers && len(path) < hops; s++ {
			if rng.Intn(2) == 0 || len(path) == 0 {
				path = append(path, s)
			}
		}
		paths[c] = path
		for _, s := range path {
			load[s]++
		}
	}
	maxLoad := 1
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	rho := util / float64(maxLoad)
	for c := 0; c < nConns; c++ {
		net.Connections = append(net.Connections, Connection{
			Name:       fmt.Sprintf("rc%d", c),
			Bucket:     traffic.TokenBucket{Sigma: 1, Rho: rho},
			AccessRate: 1,
			Path:       paths[c],
			Rate:       rho,
		})
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// DisjointBlocks builds a fabric of `blocks` independent copies of the
// paper tandem (PaperTandem(switches, load)), concatenated into one server
// list with per-block route offsets and name prefixes. No connection
// crosses blocks, so the server-sharing graph has exactly `blocks`
// components — the canonical workload for per-component admission, where
// disjoint components must commit without contending.
func DisjointBlocks(blocks, switches int, load float64) (*Network, error) {
	if blocks < 1 {
		return nil, fmt.Errorf("topo: need at least 1 block, got %d", blocks)
	}
	net := &Network{}
	for b := 0; b < blocks; b++ {
		block, err := PaperTandem(switches, load)
		if err != nil {
			return nil, err
		}
		off := len(net.Servers)
		for _, s := range block.Servers {
			s.Name = fmt.Sprintf("b%d.%s", b, s.Name)
			net.Servers = append(net.Servers, s)
		}
		for _, c := range block.Connections {
			c.Name = fmt.Sprintf("b%d.%s", b, c.Name)
			path := make([]int, len(c.Path))
			for i, s := range c.Path {
				path[i] = s + off
			}
			c.Path = path
			net.Connections = append(net.Connections, c)
		}
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}
