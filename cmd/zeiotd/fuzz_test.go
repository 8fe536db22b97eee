package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"zeiot"
	"zeiot/internal/jobs"
)

// FuzzSubmit drives POST /jobs with arbitrary bodies through the handler,
// with no socket and a stub runner. The submit decoder must never panic and
// must answer 200 (cache hit), 202 (queued), 400 (rejected), 413 (only for
// a body past maxSubmitBody) or 429 (queue full), every 2xx must carry the
// ConfigKey of the config the body decodes to, and a 2xx body holds one
// JSON value with only JSON whitespace after it.
func FuzzSubmit(f *testing.F) {
	for _, body := range []string{
		`{"experiment":"e1","config":{"Seed":1}}`,
		`{"config":{"SampleScale":1,"Seed":1},"experiment":"e1"}`,
		`{"experiment":"e7","config":{"Seed":2,"TrainWorkers":4,"SampleScale":0.5}}`,
		`{"experiment":"e8","config":{"Loss":{"Enabled":true,"DropProb":0.1,"MaxRetries":2}}}`,
		`{"experiment":"e16","config":{"Nodes":3000}}`,
		`{"experiment":"e18","config":{"Modalities":["har","gait"]}}`,
		`{"experiment":"e1"}`,
		`{"experiment"`,
		`{"experiment":"e1","config":{"Sede":1}}`,
		`{"experiment":"e1","config":{"Recorder":{}}}`,
		`{"experiment":"e1","config":{"Seed":1}} {"experiment":"e2"} garbage`,
		"{\"experiment\":\"e1\"}\r\n\t ",
		``,
	} {
		f.Add([]byte(body))
	}
	hitKey, err := zeiot.ConfigKey("e1", &zeiot.RunConfig{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	stub := func(context.Context, jobs.Work) ([]byte, error) { return []byte("[]\n"), nil }
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newServer(1, 4, stub)
		defer s.drain(0)
		// One cached result, so a body whose config canonicalizes to it
		// takes the cache-hit path.
		s.cache[hitKey] = []byte("[]\n")
		rec := httptest.NewRecorder()
		s.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted:
		case http.StatusBadRequest, http.StatusTooManyRequests:
			return
		case http.StatusRequestEntityTooLarge:
			if len(body) <= maxSubmitBody {
				t.Fatalf("413 for a %d-byte body, within the %d-byte limit", len(body), maxSubmitBody)
			}
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var resp submitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable %d response %q: %v", rec.Code, rec.Body, err)
		}
		if resp.CacheHit != (rec.Code == http.StatusOK) {
			t.Fatalf("status %d with cache_hit %v", rec.Code, resp.CacheHit)
		}
		var req submitRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("accepted body %q that does not decode: %v", body, err)
		}
		if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			t.Fatalf("accepted body %q with %q after its JSON value", body, rest)
		}
		rc := &zeiot.RunConfig{}
		if len(req.Config) > 0 {
			cdec := json.NewDecoder(bytes.NewReader(req.Config))
			cdec.DisallowUnknownFields()
			if err := cdec.Decode(rc); err != nil {
				t.Fatalf("accepted config %q that does not decode: %v", req.Config, err)
			}
		}
		want, err := zeiot.ConfigKey(req.Experiment, rc)
		if err != nil {
			t.Fatalf("accepted body %q whose config ConfigKey rejects: %v", body, err)
		}
		if resp.Key != want {
			t.Fatalf("body %q answered key %s, ConfigKey is %s", body, resp.Key, want)
		}
	})
}
