package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spforest/service"
)

// TestOversizedBodyIsRefused sends a query whose inline structure runs past
// maxBodyBytes: the server must answer 413 without decoding the whole body,
// record the failure, and keep serving — the next query is answered.
func TestOversizedBodyIsRefused(t *testing.T) {
	svc := service.New(&service.Config{})
	batcher := service.NewBatcher(svc, &service.BatcherConfig{})
	defer batcher.Close()
	srv := newServer(svc, batcher, service.NewRecorder(nil))
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	// A streamed body of unknown length: the limit, not a declared
	// Content-Length, must stop it.
	body := io.MultiReader(
		strings.NewReader(`{"algo":"spt","sources":[[0,0]],"structure":"`),
		io.LimitReader(repeatReader('0'), maxBodyBytes+1),
		strings.NewReader(`"}`),
	)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", body)
	if err != nil {
		t.Fatalf("oversized request: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d (%s), want 413", resp.StatusCode, msg)
	}

	ok := []byte(`{"scenario":"hexagon/r4","algo":"spt","sources":[[0,0]],"dests":[[2,1]]}`)
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(ok))
	if err != nil {
		t.Fatalf("follow-up request: %v", err)
	}
	defer resp.Body.Close()
	var out wireResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("follow-up answer: %v", err)
	}
	if resp.StatusCode != http.StatusOK || out.Err != "" || out.Forest == "" || out.Rounds == 0 {
		t.Fatalf("follow-up query answered %d: %+v", resp.StatusCode, out)
	}
	if got := srv.rec.Records(); got != 2 {
		t.Fatalf("recorded %d requests, want 2", got)
	}
}

// TestOversizedInlineStructureIsRefused sends, to every endpoint that takes
// a structure, an inline structure one amoebot above maxInlineAmoebots in
// a body well within maxBodyBytes: each must answer 413 before parsing,
// and the server must keep serving — the next query is answered.
func TestOversizedInlineStructureIsRefused(t *testing.T) {
	svc := service.New(&service.Config{})
	batcher := service.NewBatcher(svc, &service.BatcherConfig{})
	defer batcher.Close()
	ts := httptest.NewServer(newServer(svc, batcher, service.NewRecorder(nil)).routes())
	defer ts.Close()

	structure, err := json.Marshal(strings.Repeat("0 0\n", maxInlineAmoebots+1))
	if err != nil {
		t.Fatal(err)
	}
	for path, fields := range map[string]string{
		"/v1/query":  `"algo":"spt","sources":[[0,0]]`,
		"/v1/batch":  `"queries":[{"algo":"spt","sources":[[0,0]]}]`,
		"/v1/mutate": `"add":[[1,0]]`,
	} {
		body := `{` + fields + `,"structure":` + string(structure) + `}`
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized inline structure answered %d (%s), want 413", path, resp.StatusCode, msg)
		}
	}

	ok := `{"structure":"0 0\n1 0\n0 1\n","algo":"spt","sources":[[0,0]],"dests":[[1,0]]}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(ok))
	if err != nil {
		t.Fatalf("follow-up request: %v", err)
	}
	defer resp.Body.Close()
	var out wireResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("follow-up answer: %v", err)
	}
	if resp.StatusCode != http.StatusOK || out.Err != "" || out.Forest == "" {
		t.Fatalf("follow-up query answered %d: %+v", resp.StatusCode, out)
	}
}

// TestOutOfRangeInlineStructureIsBadRequest sends an inline structure whose
// X = MaxInt64 cell has, by wrapping int arithmetic, the X = MinInt64 cell
// as east neighbor: it must be refused with 400 as out of range, and the
// server must keep serving — the next query is answered.
func TestOutOfRangeInlineStructureIsBadRequest(t *testing.T) {
	svc := service.New(&service.Config{})
	batcher := service.NewBatcher(svc, &service.BatcherConfig{})
	defer batcher.Close()
	ts := httptest.NewServer(newServer(svc, batcher, service.NewRecorder(nil)).routes())
	defer ts.Close()

	bad := `{"structure":"9223372036854775807 0\n-9223372036854775808 0\n","algo":"spt",` +
		`"sources":[[9223372036854775807,0]],"dests":[[-9223372036854775808,0]]}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatalf("out-of-range request: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "out of range") {
		t.Fatalf("out-of-range inline structure answered %d (%s), want 400 naming the range", resp.StatusCode, msg)
	}

	ok := `{"structure":"0 0\n1 0\n0 1\n","algo":"spt","sources":[[0,0]],"dests":[[1,0]]}`
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(ok))
	if err != nil {
		t.Fatalf("follow-up request: %v", err)
	}
	defer resp.Body.Close()
	var out wireResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("follow-up answer: %v", err)
	}
	if resp.StatusCode != http.StatusOK || out.Err != "" || out.Forest == "" {
		t.Fatalf("follow-up query answered %d: %+v", resp.StatusCode, out)
	}
}

// TestMalformedBodyIsBadRequest keeps the 400 answer for bodies within the
// limit that do not decode.
func TestMalformedBodyIsBadRequest(t *testing.T) {
	svc := service.New(&service.Config{})
	batcher := service.NewBatcher(svc, &service.BatcherConfig{})
	defer batcher.Close()
	ts := httptest.NewServer(newServer(svc, batcher, service.NewRecorder(nil)).routes())
	defer ts.Close()
	for _, path := range []string{"/v1/query", "/v1/batch", "/v1/mutate"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"scenario":`))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: malformed body answered %d, want 400", path, resp.StatusCode)
		}
	}
}

// repeatReader is an endless stream of one byte.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}
