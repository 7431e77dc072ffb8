package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/soif"
)

// TestTooDeepQueryIsBadRequest: a query nested past query.MaxDepth is a
// client error on every route that parses queries — the leaf query and
// batch routes and the broker's (ConnServer's) query and batch routes.
func TestTooDeepQueryIsBadRequest(t *testing.T) {
	o := soif.New(query.SQueryType)
	o.Add("Version", query.Version)
	o.Add("FilterExpression", strings.Repeat("(", query.MaxDepth+1)+`"a"`+strings.Repeat(")", query.MaxDepth+1))
	body, err := soif.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := startTestServer(t)
	broker := regionalBroker(t, "region-d", "D-Src", []*index.Document{
		{Linkage: "http://d/1", Title: "Databases", Body: "database systems", Date: time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)},
	})
	for _, url := range []string{
		leaf.URL + "/sources/Source-1/query",
		leaf.URL + "/sources/Source-1/query-batch",
		broker.URL + "/sources/region-d/query",
		broker.URL + "/sources/region-d/query-batch",
	} {
		resp, err := http.Post(url, ContentType, strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
		if !strings.Contains(string(msg), query.ErrTooDeep.Error()) {
			t.Errorf("%s: body %q does not name the nesting bound", url, msg)
		}
	}
}
