// Package netspec serializes networks to and from a small JSON format used
// by the command-line tools, so that topologies and workloads can be
// version-controlled and shared.
//
// Format example:
//
//	{
//	  "servers": [
//	    {"name": "sw0", "capacity": 1, "discipline": "fifo"},
//	    {"name": "sw1", "capacity": 1, "discipline": "fifo"}
//	  ],
//	  "connections": [
//	    {"name": "video", "sigma": 1, "rho": 0.25, "access_rate": 1,
//	     "path": ["sw0", "sw1"], "deadline": 10}
//	  ]
//	}
//
// Paths may reference servers by name or by zero-based index.
package netspec

import (
	"encoding/json"
	"fmt"
	"strings"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// ServerSpec mirrors server.Server in JSON.
type ServerSpec struct {
	Name       string  `json:"name"`
	Capacity   float64 `json:"capacity"`
	Discipline string  `json:"discipline,omitempty"` // fifo | static-priority | guaranteed-rate
	Latency    float64 `json:"latency,omitempty"`
}

// ConnectionSpec mirrors topo.Connection in JSON.
type ConnectionSpec struct {
	Name       string            `json:"name"`
	Sigma      float64           `json:"sigma"`
	Rho        float64           `json:"rho"`
	AccessRate float64           `json:"access_rate,omitempty"`
	Path       []json.RawMessage `json:"path"`
	Priority   int               `json:"priority,omitempty"`
	Rate       float64           `json:"rate,omitempty"`
	Deadline   float64           `json:"deadline,omitempty"`
	// Envelope optionally carries a custom piecewise-linear arrival
	// curve as breakpoints plus a final slope; see EnvelopeSpec.
	Envelope *EnvelopeSpec `json:"envelope,omitempty"`
}

// EnvelopeSpec serializes a piecewise-linear arrival curve: breakpoints
// as [x, y] pairs (the first must be at x = 0) and the slope beyond the
// last breakpoint. The slope must equal the connection's rho.
type EnvelopeSpec struct {
	Points [][2]float64 `json:"points"`
	Slope  float64      `json:"slope"`
}

// Curve converts the spec into a curve.
func (e *EnvelopeSpec) Curve() (c minplus.Curve, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("netspec: invalid envelope: %v", r)
		}
	}()
	pts := make([]minplus.Point, len(e.Points))
	for i, p := range e.Points {
		pts[i] = minplus.Point{X: p[0], Y: p[1]}
	}
	return minplus.New(pts, e.Slope), nil
}

// Spec is the top-level JSON document.
type Spec struct {
	Servers     []ServerSpec     `json:"servers"`
	Connections []ConnectionSpec `json:"connections"`
}

// ParseDiscipline maps a JSON discipline string to the model enum.
func ParseDiscipline(s string) (server.Discipline, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fifo":
		return server.FIFO, nil
	case "static-priority", "staticpriority", "sp":
		return server.StaticPriority, nil
	case "guaranteed-rate", "guaranteedrate", "gr", "wfq":
		return server.GuaranteedRate, nil
	case "edf", "earliest-deadline-first":
		return server.EDF, nil
	default:
		return 0, fmt.Errorf("netspec: unknown discipline %q", s)
	}
}

// DisciplineName maps the enum back to its canonical JSON string.
func DisciplineName(d server.Discipline) string {
	switch d {
	case server.StaticPriority:
		return "static-priority"
	case server.GuaranteedRate:
		return "guaranteed-rate"
	case server.EDF:
		return "edf"
	default:
		return "fifo"
	}
}

// Decode parses a JSON document into a validated Network.
func Decode(data []byte) (*topo.Network, error) {
	var spec Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("netspec: %w", err)
	}
	return FromSpec(&spec)
}

// ServerIndex maps named servers to their indices, rejecting duplicates.
func ServerIndex(servers []server.Server) (map[string]int, error) {
	index := make(map[string]int, len(servers))
	for i, s := range servers {
		if s.Name == "" {
			continue
		}
		if _, dup := index[s.Name]; dup {
			return nil, fmt.Errorf("netspec: duplicate server name %q", s.Name)
		}
		index[s.Name] = i
	}
	return index, nil
}

// ConnectionFromSpec resolves one connection spec against a server fabric,
// mapping path hops given by name through the index. The result is not
// validated beyond path resolution; callers validate it in network context.
func ConnectionFromSpec(c *ConnectionSpec, index map[string]int) (topo.Connection, error) {
	var path []int
	for j, raw := range c.Path {
		var byName string
		if err := json.Unmarshal(raw, &byName); err == nil {
			idx, ok := index[byName]
			if !ok {
				return topo.Connection{}, fmt.Errorf("netspec: connection %q hop %d: unknown server %q", c.Name, j, byName)
			}
			path = append(path, idx)
			continue
		}
		var byIdx int
		if err := json.Unmarshal(raw, &byIdx); err == nil {
			path = append(path, byIdx)
			continue
		}
		return topo.Connection{}, fmt.Errorf("netspec: connection %q hop %d: want server name or index, got %s", c.Name, j, string(raw))
	}
	conn := topo.Connection{
		Name:       c.Name,
		Bucket:     traffic.TokenBucket{Sigma: c.Sigma, Rho: c.Rho},
		AccessRate: c.AccessRate,
		Path:       path,
		Priority:   c.Priority,
		Rate:       c.Rate,
		Deadline:   c.Deadline,
	}
	if c.Envelope != nil {
		env, err := c.Envelope.Curve()
		if err != nil {
			return topo.Connection{}, fmt.Errorf("netspec: connection %q: %w", c.Name, err)
		}
		conn.Envelope = &env
	}
	return conn, nil
}

// FromSpec converts a parsed Spec into a validated Network.
func FromSpec(spec *Spec) (*topo.Network, error) {
	net := &topo.Network{}
	for i, s := range spec.Servers {
		d, err := ParseDiscipline(s.Discipline)
		if err != nil {
			return nil, fmt.Errorf("netspec: server %d: %w", i, err)
		}
		net.Servers = append(net.Servers, server.Server{
			Name:       s.Name,
			Capacity:   s.Capacity,
			Discipline: d,
			Latency:    s.Latency,
		})
	}
	index, err := ServerIndex(net.Servers)
	if err != nil {
		return nil, err
	}
	for i := range spec.Connections {
		conn, err := ConnectionFromSpec(&spec.Connections[i], index)
		if err != nil {
			return nil, fmt.Errorf("netspec: connection %d: %w", i, err)
		}
		net.Connections = append(net.Connections, conn)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// Encode renders a Network as an indented JSON document, naming path hops
// by server name when available.
func Encode(net *topo.Network) ([]byte, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(ToSpec(net), "", "  ")
}

// ToSpec converts a Network back into its serializable Spec form, naming
// path hops by server name when available. The network is assumed valid.
func ToSpec(net *topo.Network) *Spec {
	spec := Spec{}
	for _, s := range net.Servers {
		spec.Servers = append(spec.Servers, ServerSpec{
			Name:       s.Name,
			Capacity:   s.Capacity,
			Discipline: DisciplineName(s.Discipline),
			Latency:    s.Latency,
		})
	}
	if len(net.Connections) > 0 {
		hops := HopNames(net.Servers)
		for _, c := range net.Connections {
			spec.Connections = append(spec.Connections, ConnectionToSpecHops(c, hops))
		}
	}
	return &spec
}

// HopNames returns, per server, what a path hop through it serializes to:
// the server's name, or its index when unnamed. Callers converting many
// connections over one fabric compute it once (see ConnectionToSpecHops).
func HopNames(servers []server.Server) []json.RawMessage {
	hops := make([]json.RawMessage, len(servers))
	for i, s := range servers {
		if s.Name != "" {
			hops[i], _ = json.Marshal(s.Name)
		} else {
			hops[i], _ = json.Marshal(i)
		}
	}
	return hops
}

// ConnectionToSpec converts one connection into its serializable form,
// naming path hops by server name when available. Hops are assumed to be
// valid indices into servers.
func ConnectionToSpec(c topo.Connection, servers []server.Server) ConnectionSpec {
	cs := connectionSpec(c)
	for _, hop := range c.Path {
		var raw json.RawMessage
		if name := servers[hop].Name; name != "" {
			raw, _ = json.Marshal(name)
		} else {
			raw, _ = json.Marshal(hop)
		}
		cs.Path = append(cs.Path, raw)
	}
	return cs
}

// ConnectionToSpecHops is ConnectionToSpec over a precomputed HopNames
// table. The returned path shares the table's entries, which callers must
// not modify.
func ConnectionToSpecHops(c topo.Connection, hops []json.RawMessage) ConnectionSpec {
	cs := connectionSpec(c)
	for _, hop := range c.Path {
		cs.Path = append(cs.Path, hops[hop])
	}
	return cs
}

// connectionSpec converts everything but the path.
func connectionSpec(c topo.Connection) ConnectionSpec {
	cs := ConnectionSpec{
		Name:       c.Name,
		Sigma:      c.Bucket.Sigma,
		Rho:        c.Bucket.Rho,
		AccessRate: c.AccessRate,
		Priority:   c.Priority,
		Rate:       c.Rate,
		Deadline:   c.Deadline,
	}
	if c.Envelope != nil {
		es := &EnvelopeSpec{Slope: c.Envelope.FinalSlope()}
		for _, p := range c.Envelope.Points() {
			es.Points = append(es.Points, [2]float64{p.X, p.Y})
		}
		cs.Envelope = es
	}
	return cs
}
