package analysis_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/query"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// TestServedMergePanicFailsOneRequest pins what a bug in one stage's
// merge costs the query service: the window request that folds it gets
// a 500, and the daemon goes on serving and ingesting.
func TestServedMergePanicFailsOneRequest(t *testing.T) {
	defer analysis.PanicOnMerge("durations")()
	start := time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)
	s, err := query.New(query.Config{
		Ctx:     analysis.Context{Period: simtime.NewPeriod(start, 2)},
		Windows: []query.Window{{Name: "48h", Span: 48 * time.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(k int) cdr.Record {
		return cdr.Record{
			Car:      cdr.CarID(k % 7),
			Cell:     radio.MakeCellKey(radio.BSID(k%5), 0, radio.C1),
			Start:    start.Add(time.Duration(k) * 6 * time.Minute),
			Duration: time.Minute,
		}
	}
	for k := range 400 {
		s.Add(rec(k))
	}
	ts := httptest.NewServer(query.NewServer(s, obs.New()))
	defer ts.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body strings.Builder
		if _, err := io.Copy(&body, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.String()
	}
	for range 2 {
		if code, body := get("/report/summary?window=48h"); code != http.StatusInternalServerError || !strings.Contains(body, "merge bug") {
			t.Fatalf("/report/summary over a panicking merge: %d %q, want a 500 naming the panic", code, body)
		}
		if code, _ := get("/healthz"); code != http.StatusOK {
			t.Fatalf("/healthz after the panic: %d", code)
		}
	}
	s.Add(rec(400))
	if code, body := get("/stats"); code != http.StatusOK || !strings.Contains(body, `"records": 401`) {
		t.Fatalf("/stats after the panic: %d %q", code, body)
	}
}
