package experiments

// Fuzz targets for the experiment-result streaming codecs, alongside the
// dag/model fuzzers: anything the readers accept must round-trip
// canonically (decode → encode → decode is the identity, and the
// re-encoded bytes are a fixed point).

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

func jsonlSeedCorpus() []string {
	return []string{
		`{"index":0,"scenario":"mixed","m":4,"u":1.2,"sets":25,"sched":{"FP-ideal":25,"LP-ILP":20,"LP-max":18}}`,
		`{"index":1,"scenario":"wide","m":64,"u":57.6,"sets":3,"sched":{"LP-ILP":0}}`,
		`{"index":2,"scenario":"npr-fine","m":8,"u":0.8,"sets":1,"sched":{}}` + "\n" +
			`{"index":3,"scenario":"deep","m":2,"u":1.9999999999999998,"sets":1,"sched":{"LP-max":1}}`,
		"",
		"\n\n",
		`{"index":-5,"scenario":"","m":0,"u":0,"sets":0,"sched":null}`,
		`not json`,
		`{"index":1e999}`,
	}
}

// FuzzCampaignJSONLRoundTrip: any accepted JSONL stream must re-encode
// and re-decode to the same results, and the re-encoded bytes must be a
// fixed point of the codec.
func FuzzCampaignJSONLRoundTrip(f *testing.F) {
	for _, s := range jsonlSeedCorpus() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := ReadCampaignJSONL(strings.NewReader(string(data)))
		if err != nil {
			return // rejection is fine; panics are not
		}
		enc, err := CampaignJSONL(results)
		if err != nil {
			t.Fatalf("accepted results failed to encode: %v", err)
		}
		back, err := ReadCampaignJSONL(strings.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\n%s", err, enc)
		}
		if len(back) != len(results) {
			t.Fatalf("round trip changed result count %d -> %d", len(results), len(back))
		}
		if !reflect.DeepEqual(results, back) {
			t.Fatalf("round trip changed results:\n%#v\nvs\n%#v", results, back)
		}
		enc2, err := CampaignJSONL(back)
		if err != nil || enc2 != enc {
			t.Fatalf("encoding not a fixed point (err %v):\n%q\nvs\n%q", err, enc, enc2)
		}
	})
}

func csvSeedCorpus() []string {
	return []string{
		"index,scenario,m,u,sets,FP-ideal,LP-ILP,LP-max\n0,mixed,4,1.2,25,25,20,18\n1,mixed,4,2.4,25,20,11,9\n",
		"index,scenario,m,u,sets,LP-ILP\n7,wide,64,57.6,3,0\n",
		"index,scenario,m,u,sets,a\n",
		"index,scenario,m,u,sets,a\n-1,x_y.z-w,2,0.5,0,-3\n",
		"",
		"bogus header\n",
		"index,scenario,m,u,sets,a,a\n", // duplicate method column
		"index,scenario,m,u,sets,a\n0,name,2,NaN,1,1\n",
	}
}

// FuzzCampaignCSVRoundTrip: same canonical-round-trip contract for the
// CSV stream.
func FuzzCampaignCSVRoundTrip(f *testing.F) {
	for _, s := range csvSeedCorpus() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		results, methods, err := ParseCampaignCSV(string(data))
		if err != nil {
			return
		}
		enc := CampaignCSV(results, methods)
		back, methods2, err := ParseCampaignCSV(enc)
		if err != nil {
			t.Fatalf("re-parse of own encoding failed: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(methods, methods2) {
			t.Fatalf("round trip changed methods %v -> %v", methods, methods2)
		}
		if len(back) != len(results) {
			t.Fatalf("round trip changed row count %d -> %d", len(results), len(back))
		}
		if !reflect.DeepEqual(results, back) {
			t.Fatalf("round trip changed rows:\n%#v\nvs\n%#v", results, back)
		}
		if enc2 := CampaignCSV(back, methods2); enc2 != enc {
			t.Fatalf("encoding not a fixed point:\n%q\nvs\n%q", enc, enc2)
		}
	})
}

// FuzzCampaignBody posts arbitrary bytes to /v1/campaign and /v1/shard
// under an already-cancelled request context, so no point is computed:
// neither route may panic, each answers 200, 400 or 503, and the bytes
// allocated during the call stay under 64 × len(body) + 1 MiB, so no
// body can make a node build a grid for it.
func FuzzCampaignBody(f *testing.F) {
	campaign, shard := hugeGridBodies()
	small := `{"seed":1,"ms":[2,4],"u_fracs":[0.5],"sets_per_point":2,"scenarios":["wide"]}`
	for _, body := range []string{campaign, shard, small, `{"campaign":` + small + `,"points":[1]}`} {
		f.Add([]byte(body))
	}
	eng := engine.New(engine.Config{Workers: 1})
	f.Cleanup(eng.Close)
	routes := []http.Handler{CampaignHandler(eng), ShardHandler(eng, ShardConfig{})}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, h := range routes {
			w := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(string(body))).WithContext(cancelled)
			alloc := allocDuring(func() { h.ServeHTTP(w, req) })
			switch w.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable:
			default:
				t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
			}
			if limit := uint64(64*len(body) + 1<<20); alloc > limit {
				t.Fatalf("a %d-byte body allocated %d bytes, over %d", len(body), alloc, limit)
			}
		}
	})
}
