package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func httpJSON(t *testing.T, srv *httptest.Server, method, path string, body any, wantStatus int, out any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: HTTP %d, want %d", method, path, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHTTPRoundTrip drives the full wire surface: health, status, a
// concurrent bid, the virtual clock, and decision lookup.
func TestHTTPRoundTrip(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	b := startBroker(t, s.brokerOptions())
	defer b.Kill()
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	httpJSON(t, srv, "GET", "/healthz", nil, http.StatusOK, nil)

	var st Status
	httpJSON(t, srv, "GET", "/v1/status", nil, http.StatusOK, &st)
	if st.Slot != 0 || st.Slots != 12 || !st.VirtualTime {
		t.Fatalf("status: %+v", st)
	}

	// The bid blocks until its slot closes, so it needs its own
	// goroutine while the main one steps the clock.
	decCh := make(chan DecisionResponse, 1)
	errCh := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(BidRequest{Deadline: 10, Work: 5, MemGB: 2, Bid: 8})
		resp, err := srv.Client().Post(srv.URL+"/v1/bids", "application/json", bytes.NewReader(body))
		if err != nil {
			errCh <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errCh <- fmt.Errorf("POST /v1/bids: HTTP %d", resp.StatusCode)
			return
		}
		var d DecisionResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			errCh <- err
			return
		}
		decCh <- d
	}()
	// Wait for intake, then close the slot.
	for {
		httpJSON(t, srv, "GET", "/v1/status", nil, http.StatusOK, &st)
		if st.Held == 1 {
			break
		}
	}
	var step map[string]int
	httpJSON(t, srv, "POST", "/v1/clock/step", map[string]int{"slots": 1}, http.StatusOK, &step)
	if step["slot"] != 1 {
		t.Fatalf("step: %v", step)
	}
	// An empty body means one slot, like an omitted "slots".
	httpJSON(t, srv, "POST", "/v1/clock/step", nil, http.StatusOK, &step)
	if step["slot"] != 2 {
		t.Fatalf("empty-body step: %v", step)
	}
	var dec DecisionResponse
	select {
	case dec = <-decCh:
	case err := <-errCh:
		t.Fatal(err)
	}

	var got DecisionResponse
	httpJSON(t, srv, "GET", fmt.Sprintf("/v1/decisions/%d", dec.TaskID), nil, http.StatusOK, &got)
	if got.Admitted != dec.Admitted {
		t.Fatalf("lookup %+v vs submit %+v", got, dec)
	}

	httpJSON(t, srv, "GET", "/v1/decisions/9999", nil, http.StatusNotFound, nil)
	httpJSON(t, srv, "GET", "/v1/decisions/notanumber", nil, http.StatusBadRequest, nil)
	httpJSON(t, srv, "POST", "/v1/bids", map[string]any{"unknown_field": 1}, http.StatusBadRequest, nil)

	// Past-slot and horizon-over refusals map to 409/410.
	past := 0
	httpJSON(t, srv, "POST", "/v1/bids",
		BidRequest{Arrival: &past, Deadline: 10, Work: 5, MemGB: 2, Bid: 8},
		http.StatusConflict, nil)
	httpJSON(t, srv, "POST", "/v1/clock/step", map[string]int{"slots": 50}, http.StatusOK, &step)
	if step["slot"] != 12 {
		t.Fatalf("clamped step: %v", step)
	}
	httpJSON(t, srv, "POST", "/v1/bids",
		BidRequest{Deadline: 10, Work: 5, MemGB: 2, Bid: 8},
		http.StatusGone, nil)
}

// TestHTTPErrorSurface: /healthz is aliased under the /v1 prefix for
// probes confined to it, and the mux's built-in text refusals (404 for
// unknown paths, 405 for wrong methods) are rewritten into the JSON
// error envelope every other endpoint speaks.
func TestHTTPErrorSurface(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	b := startBroker(t, s.brokerOptions())
	defer b.Kill()
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	var h1, h2 Health
	httpJSON(t, srv, "GET", "/healthz", nil, http.StatusOK, &h1)
	httpJSON(t, srv, "GET", "/v1/healthz", nil, http.StatusOK, &h2)
	if h1 != h2 {
		t.Fatalf("alias diverges: /healthz %+v vs /v1/healthz %+v", h1, h2)
	}

	for _, tc := range []struct {
		method, path string
		wantStatus   int
	}{
		{"GET", "/v1/nosuch", http.StatusNotFound},
		{"DELETE", "/v1/status", http.StatusMethodNotAllowed},
		{"GET", "/v1/bids", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s: HTTP %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %s: error body is not JSON: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if body.Error == "" {
			t.Fatalf("%s %s: empty error field", tc.method, tc.path)
		}
	}
}

// TestHTTPRealClockStep: stepping a real-clock broker is a 409.
func TestHTTPRealClockStep(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	opts := s.brokerOptions()
	opts.VirtualClock = false
	opts.SlotDuration = 3600e9
	b := startBroker(t, opts)
	defer b.Kill()
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	httpJSON(t, srv, "POST", "/v1/clock/step", map[string]int{"slots": 1}, http.StatusConflict, nil)
}
