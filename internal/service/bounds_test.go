package service

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestBoundsEncodingMatchesElementwise pins the one-pass bound-vector
// encoding to the bytes encoding/json writes for each float64 (null for
// unbounded and undefined entries), across the fixed/exponent switch
// points and extremes.
func TestBoundsEncodingMatchesElementwise(t *testing.T) {
	vals := []float64{0, 1, -1, 0.1, 123.456, 1e-6, 9.999e-7, 1e-7, 1.5e-7, 1e20, 1e21, 1.5e21, -2.5e-9,
		5e-324, math.MaxFloat64, 33.333333333333336, math.Inf(1), math.Inf(-1), math.NaN()}
	parts := make([]string, len(vals))
	bounds := make(Bounds, len(vals))
	for i, v := range vals {
		bounds[i] = Bound(v)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			parts[i] = "null"
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = string(b)
		if one, _ := json.Marshal(Bound(v)); string(one) != parts[i] {
			t.Errorf("Bound(%v) encodes as %s, want %s", v, one, parts[i])
		}
	}
	got, err := json.Marshal(struct {
		B Bounds `json:"b"`
		N Bounds `json:"n"`
		E Bounds `json:"e"`
	}{B: bounds, E: Bounds{}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"b":[` + strings.Join(parts, ",") + `],"n":null,"e":[]}`
	if string(got) != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}
