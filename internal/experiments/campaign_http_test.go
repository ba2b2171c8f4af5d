package experiments

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
)

func campaignTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	srv := httptest.NewServer(CampaignHandler(eng))
	t.Cleanup(srv.Close)
	return srv, eng
}

func TestCampaignEndpointStreamsNDJSON(t *testing.T) {
	srv, eng := campaignTestServer(t)
	body := `{"seed":9,"ms":[2],"u_fracs":[0.4,0.8],"sets_per_point":2,"scenarios":["mixed","wide"]}`
	resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	results, err := ReadCampaignJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	for i, r := range results {
		if r.Index != i || r.Sets != 2 {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}
	if eng.Stats().Sweeps != 4 {
		t.Errorf("engine served %d sweep jobs, want 4", eng.Stats().Sweeps)
	}

	// The HTTP stream must be byte-identical to a local run of the same
	// campaign (the determinism contract crosses the wire).
	cfg, err := CampaignRequest{
		Seed: 9, Ms: []int{2}, UFracs: []float64{0.4, 0.8}, SetsPerPoint: 2,
		Scenarios: []string{"mixed", "wide"},
	}.Config()
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunCampaign(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := CampaignJSONL(local)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got strings.Builder
	if _, err := io.Copy(&got, resp2.Body); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Error("HTTP campaign stream differs from local run")
	}
}

func TestCampaignEndpointRejectsBadRequests(t *testing.T) {
	srv, _ := campaignTestServer(t)
	for name, body := range map[string]string{
		"bad json":         `{`,
		"unknown scenario": `{"scenarios":["bogus"]}`,
		"unknown method":   `{"methods":["qp"]}`,
		"unknown backend":  `{"backend":"x"}`,
		"zero cores":       `{"ms":[0]}`,
		"huge cores":       `{"ms":[65]}`,
		"too many sets":    `{"sets_per_point":100000}`,
		"unknown field":    `{"bogus":1}`,
		"retired shards":   `{"shards":2}`,
	} {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Grid-size cap.
	resp, err := http.Post(srv.URL, "application/json", strings.NewReader(
		`{"ms":[2,3,4,5,6,7,8,9],"u_fracs":[`+strings.Repeat("0.1,", 400)+`0.2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d, want 400", resp.StatusCode)
	}
	// GET is not allowed.
	getResp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", getResp.StatusCode)
	}
}
