package main

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzEstimateRequest drives /estimate's parser and validator with arbitrary
// POST bodies and GET queries. Neither may panic, and every request they
// accept must honor the model's input contract: exactly InDim binary
// features, and τ within [0, TauMax] unless the whole curve is requested.
func FuzzEstimateRequest(f *testing.F) {
	m := tinyModel(3)
	xCSV := strings.Join(binXStrings(m), ",")
	f.Add(false, `{"x":[`+xCSV+`],"tau":3}`)
	f.Add(false, `{"x":[`+xCSV+`],"all":true}`)
	f.Add(true, "x="+xCSV+"&tau=3")
	f.Add(true, "x="+xCSV+"&all=1")
	post, get := badEstimateInputs(m)
	for _, in := range post {
		f.Add(false, in.in)
	}
	for _, in := range get {
		f.Add(true, in.in)
	}

	f.Fuzz(func(t *testing.T, isGet bool, in string) {
		r := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/estimate"}, Body: io.NopCloser(strings.NewReader(in))}
		if isGet {
			r = &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/estimate", RawQuery: in}}
		}
		req, err := parseEstimateRequest(r)
		if err != nil || validateEstimateRequest(req, m) != nil {
			return
		}
		if len(req.X) != m.InDim {
			t.Fatalf("accepted x of %d features, model expects %d", len(req.X), m.InDim)
		}
		for i, v := range req.X {
			if v != 0 && v != 1 {
				t.Fatalf("accepted non-binary x[%d] = %v", i, v)
			}
		}
		if !req.All && (req.Tau == nil || *req.Tau < 0 || *req.Tau > m.Cfg.TauMax) {
			t.Fatalf("accepted tau %v outside [0, %d]", req.Tau, m.Cfg.TauMax)
		}
	})
}
