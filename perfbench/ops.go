package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"delaycalc/internal/service"
)

// result is one operation's outcome in a form every layer can produce, so
// the traced run can compare layers op by op.
type result struct {
	Status int
	// Failed marks a transport error, a 5xx or a shed request.
	Failed bool
	// Unexpected holds a response the workload never provokes (a 4xx, an
	// undecodable body); it fails the run's output checks.
	Unexpected string
	// Admitted and Bounds have one entry per admit in the op. A single
	// admit's bounds are the whole trial's; a batch reports each admit's
	// largest bound.
	Admitted []bool
	Bounds   [][]float64
	Released []bool
	// Count is the admitted-set size the response reports.
	Count     int
	RespBytes int
}

// rejected counts the op's admission "no" decisions.
func (r *result) rejected() int {
	n := 0
	for _, a := range r.Admitted {
		if !a {
			n++
		}
	}
	return n
}

// admits counts the op's admission decisions.
func (r *result) admits() int { return len(r.Admitted) }

// signature renders the decision, bounds and count exactly (shortest
// round-trip float formatting, null for an unbounded or missing bound),
// so two layers agree iff their signatures are equal.
func (r *result) signature() string {
	var b strings.Builder
	for i, a := range r.Admitted {
		fmt.Fprintf(&b, "a%v[", a)
		for _, x := range r.Bounds[i] {
			b.WriteString(fmtBound(x))
			b.WriteByte(' ')
		}
		b.WriteString("] ")
	}
	for _, rel := range r.Released {
		fmt.Fprintf(&b, "r%v ", rel)
	}
	fmt.Fprintf(&b, "n%d", r.Count)
	return b.String()
}

// nanBound is the bound of an admit that never analyzed, which the API
// renders as null.
var nanBound = math.NaN()

func fmtBound(x float64) string {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return "null"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// request is an op encoded as the /v2 HTTP request delayd serves.
type request struct {
	Method, Path string
	Body         []byte
}

func encodeOp(o op) request {
	switch o.Kind {
	case opAdmit:
		body, _ := json.Marshal(service.AdmitRequest{Connection: o.Conn})
		return request{http.MethodPost, apiPrefix + "/connections", body}
	case opRelease:
		return request{http.MethodDelete, apiPrefix + "/connections/" + o.Name, nil}
	case opBatch:
		body, _ := json.Marshal(service.BatchRequest{Operations: o.Batch})
		return request{http.MethodPost, apiPrefix + "/batch", body}
	default:
		return request{http.MethodGet, apiPrefix + "/connections?limit=" + strconv.Itoa(readLimit), nil}
	}
}

// jsonBound mirrors service.Bound on the decoding side: null is +Inf.
type jsonBound float64

func (b *jsonBound) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*b = jsonBound(math.Inf(1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*b = jsonBound(f)
	return nil
}

func toFloats(bs []jsonBound) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = float64(b)
	}
	return out
}

// decodeResponse turns an HTTP status and body into a result.
func decodeResponse(o op, status int, body []byte) *result {
	r := &result{Status: status, RespBytes: len(body)}
	if status >= 500 {
		r.Failed = true
		return r
	}
	if status != http.StatusOK {
		r.Unexpected = fmt.Sprintf("%s: status %d: %.200s", o.Kind, status, body)
		return r
	}
	var err error
	switch o.Kind {
	case opAdmit:
		var resp struct {
			Admitted bool        `json:"admitted"`
			Bounds   []jsonBound `json:"bounds"`
			Count    int         `json:"count"`
		}
		if err = json.Unmarshal(body, &resp); err == nil {
			r.Admitted = []bool{resp.Admitted}
			r.Bounds = [][]float64{toFloats(resp.Bounds)}
			r.Count = resp.Count
		}
	case opRelease:
		var resp service.RemoveResponse
		if err = json.Unmarshal(body, &resp); err == nil {
			r.Released = []bool{resp.Removed == o.Name}
			r.Count = resp.Count
		}
	case opBatch:
		var resp struct {
			Results []struct {
				Op       string `json:"op"`
				Status   string `json:"status"`
				Decision *struct {
					MaxBound jsonBound `json:"max_bound"`
				} `json:"decision"`
			} `json:"results"`
			Count int `json:"count"`
		}
		if err = json.Unmarshal(body, &resp); err == nil {
			for _, it := range resp.Results {
				switch it.Op {
				case "admit":
					mb := nanBound
					if it.Decision != nil {
						mb = float64(it.Decision.MaxBound)
					}
					r.Admitted = append(r.Admitted, it.Status == service.BatchStatusAdmitted)
					r.Bounds = append(r.Bounds, []float64{mb})
				case "release":
					r.Released = append(r.Released, it.Status == service.BatchStatusReleased)
				}
			}
			r.Count = resp.Count
		}
	case opRead:
		var resp service.ListResponse
		if err = json.Unmarshal(body, &resp); err == nil {
			r.Count = resp.Count
		}
	}
	if err != nil {
		r.Unexpected = fmt.Sprintf("%s: undecodable response: %v", o.Kind, err)
	}
	return r
}

// httpClient returns a client whose transport never opens more than conns
// connections to the daemon, so load comes from at most conns sockets.
func httpClient(conns int) *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// doHTTP sends one op to the daemon and returns its result and the time
// from writing the request to reading the whole response.
func doHTTP(ctx context.Context, c *http.Client, base string, o op) (*result, time.Duration) {
	rq := encodeOp(o)
	var body io.Reader
	if rq.Body != nil {
		body = bytes.NewReader(rq.Body)
	}
	req, err := http.NewRequestWithContext(ctx, rq.Method, base+rq.Path, body)
	if err != nil {
		return &result{Unexpected: err.Error()}, 0
	}
	if rq.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return &result{Failed: true}, time.Since(start)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return &result{Failed: true}, elapsed
	}
	return decodeResponse(o, resp.StatusCode, data), elapsed
}
