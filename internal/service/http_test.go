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
	past := int32(0)
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

// wideBid is BidRequest with every integer as wide as JSON allows: the
// same keys through the same decoder, so whatever encoding/json does with
// case, duplicates and nulls it does to both. It also reads the keys the
// wire no longer has, so a strictly decoded body can be checked for one.
type wideBid struct {
	ID        *int64  `json:"id"`
	Arrival   *int64  `json:"arrival"`
	Deadline  int64   `json:"deadline"`
	Work      int64   `json:"work"`
	MemGB     float64 `json:"mem_gb"`
	Bid       float64 `json:"bid"`
	NeedsPrep bool    `json:"needs_prep"`
	Batch     int64   `json:"batch"`
	ModelName string  `json:"model"`

	Rank           json.RawMessage `json:"rank"`
	DatasetSamples json.RawMessage `json:"dataset_samples"`
	Epochs         json.RawMessage `json:"epochs"`
}

// FuzzDecodeBids: a body either fails to decode or becomes tasks whose
// every field is the value on the wire — never a number that wrapped on
// its way into a narrower field, nor a model outside the catalog — and a
// task survives the trip back out through BidRequestFor and in again
// unchanged. A lone object goes through POST /v1/bids's strict decoder,
// which must also refuse the keys the wire has dropped; an array goes
// through the batch decoder, which ignores unknown keys.
func FuzzDecodeBids(f *testing.F) {
	f.Add([]byte(`[{"id":7,"arrival":3,"deadline":9,"work":24,"mem_gb":4.5,"bid":50,"needs_prep":true,"batch":32,"model":"gpt2-medium"}]`))
	f.Add([]byte(`[{"deadline":9,"work":5,"mem_gb":2,"bid":8},{"Deadline":1,"deadline":2,"work":null}]`))
	f.Add([]byte(`[{"deadline":2147483648,"work":5,"mem_gb":2,"bid":8}]`))
	f.Add([]byte(`[{"deadline":9,"work":-2147483649,"mem_gb":2,"bid":8}]`))
	f.Add([]byte(`[{"deadline":9,"work":5,"batch":32768}]`))
	f.Add([]byte(`[{"id":9007199254740993,"arrival":4294967296}]`))
	f.Add([]byte(`[{"deadline":1e3,"work":5.0,"bid":1e999}]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":7,"deadline":9,"work":5,"mem_gb":2,"bid":8,"model":"gpt2-small"}`))
	for _, body := range refusedBids {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []BidRequest
		var wide []wideBid
		if bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
			var req BidRequest
			if err := decodeBid(data, &req); err != nil {
				return
			}
			var w wideBid
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
				t.Fatalf("the bid decoded strictly, but the wide reading fails: %v", err)
			}
			if w.Rank != nil || w.DatasetSamples != nil || w.Epochs != nil {
				t.Fatalf("the strict decoder took %s, which carries a key the wire has dropped", data)
			}
			reqs, wide = []BidRequest{req}, []wideBid{w}
		} else {
			if err := decodeBids(data, &reqs); err != nil {
				return
			}
			if err := json.Unmarshal(data, &wide); err != nil || len(wide) != len(reqs) {
				t.Fatalf("%d bids decoded, but the wide reading has %d (err %v)", len(reqs), len(wide), err)
			}
		}
		orDefault := func(p *int64, v int64) int64 {
			if p != nil {
				return *p
			}
			return v
		}
		for i := range reqs {
			tk, w := reqs[i].Task(), &wide[i]
			if w.Batch == 0 {
				w.Batch = 8
			}
			if int64(tk.ID) != orDefault(w.ID, -1) || int64(tk.Arrival) != orDefault(w.Arrival, -1) ||
				int64(tk.Deadline) != w.Deadline || int64(tk.Work) != w.Work || int64(tk.Batch) != w.Batch ||
				tk.MemGB != w.MemGB || tk.Bid != w.Bid ||
				tk.NeedsPrep != w.NeedsPrep || !tk.ModelName.Valid() || tk.ModelName.String() != w.ModelName {
				t.Fatalf("bid %d became %+v, the wire says %+v", i, tk, *w)
			}
			again, err := json.Marshal([]BidRequest{BidRequestFor(tk)})
			if err != nil {
				t.Fatalf("bid %d: %+v does not encode: %v", i, tk, err)
			}
			var back []BidRequest
			if err := decodeBids(again, &back); err != nil || len(back) != 1 || back[0].Task() != tk {
				t.Fatalf("bid %d: %+v came back from %s as %+v (err %v)", i, tk, again, back, err)
			}
		}
	})
}

// refusedBids are POST /v1/bids bodies the wire refuses: one per key it
// dropped with the task's dataset size, epochs and rank, and one naming a
// model outside the catalog.
var refusedBids = []string{
	`{"deadline":9,"work":5,"mem_gb":2,"bid":8,"rank":8}`,
	`{"deadline":9,"work":5,"mem_gb":2,"bid":8,"dataset_samples":8000}`,
	`{"deadline":9,"work":5,"mem_gb":2,"bid":8,"epochs":3}`,
	`{"deadline":9,"work":5,"mem_gb":2,"bid":8,"model":"llama-7b"}`,
}

// TestBidWireRefusals: each of refusedBids is a 400, and so is an
// uncatalogued model in a batch (whose decoder is not strict about keys)
// and a catalogued model the broker does not serve; the same bid without
// the offending key is acked.
func TestBidWireRefusals(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	b := startBroker(t, s.brokerOptions())
	defer b.Kill()
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp.StatusCode, out.String()
	}
	for _, body := range append(refusedBids, `{"deadline":9,"work":5,"mem_gb":2,"bid":8,"model":"gpt2-medium"}`) {
		if code, out := post("/v1/bids", body); code != http.StatusBadRequest {
			t.Errorf("POST /v1/bids %s: HTTP %d %s, want 400", body, code, out)
		}
	}
	if code, out := post("/v1/bids/batch?ack=1", "["+refusedBids[len(refusedBids)-1]+"]"); code != http.StatusBadRequest {
		t.Errorf("a batch naming an uncatalogued model: HTTP %d %s, want 400", code, out)
	}
	code, out := post("/v1/bids/batch?ack=1", `[{"deadline":9,"work":5,"mem_gb":2,"bid":8,"model":"gpt2-small"},{"deadline":9,"work":5,"mem_gb":2,"bid":8}]`)
	if code != http.StatusOK || bytes.Contains([]byte(out), []byte(`"error"`)) {
		t.Errorf("the served model, named and unnamed: HTTP %d %s, want both acked", code, out)
	}
}
