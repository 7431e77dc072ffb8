package qcache

import (
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/corpus"
	"starts/internal/lang"
	"starts/internal/query"
)

// TestCanonicalMatchesOracleOnWorkload checks the one-pass renderer
// against the frozen oracle over a generated query workload: the same
// canonical text, hence the same keys, for every query.
func TestCanonicalMatchesOracleOnWorkload(t *testing.T) {
	g := corpus.Generate(corpus.Config{Seed: 3, NumSources: 8, DocsPerSource: 1})
	for _, w := range corpus.Workload(g, corpus.WorkloadConfig{Seed: 11, NumQueries: 2000, MaxTerms: 5, FilterFraction: 0.5}) {
		if got, want := Canonical(w.Query), oracleCanonical(w.Query); got != want {
			t.Fatalf("Canonical diverged from the oracle:\n got %s\nwant %s", got, want)
		}
	}
}

// FuzzKeyMatchesOracle is the differential check of the one-pass
// renderer: for any parseable filter and ranking, plus arbitrary result
// specification fields, an attribute set name and a raw (possibly
// invalid UTF-8) term value, Canonical and Key must equal the frozen
// oracle's output byte for byte.
func FuzzKeyMatchesOracle(f *testing.F) {
	seeds := []struct {
		filter, ranking, value, sources, fields, sortBy, set string
		min                                                  float64
		max                                                  int
		stop                                                 bool
	}{
		{`((title "b") and (title "a"))`, ``, ``, ``, ``, ``, `basic-1`, 0, 0, true},
		{`(((author "x") or (title "y")) or ((body-of-text "z") and (title "a")))`, ``, "a\xffb", `s2 s1`, `author TITLE`, `date-last-modified score`, `DC-1`, 0.5, 7, false},
		{`((title "a") and-not ((title "c") or (title "b")))`, `list(("db" 0.3) list((title stem "db") ("q")))`, ``, ``, `linkage`, `score`, ``, 0, 20, true},
		{`((title stem "distributed") prox[3,T] ("databases"))`, ``, `"q" \`, `x`, ``, ``, `Ünï`, 1e-9, -1, true},
		{`((title stem phonetic [en-US "behavior"]) and (date-last-modified > "1996-08-01"))`, `((body-of-text "b") or (body-of-text "a"))`, ``, ``, ``, ``, `basic-1`, 0, 0, true},
		{`((author "Ullman") and (title stem "databases"))`, `list((body-of-text "distributed") (body-of-text "databases"))`, ``, ``, ``, ``, `basic-1`, 0, 0, true},
	}
	for _, s := range seeds {
		f.Add(s.filter, s.ranking, s.value, s.sources, s.fields, s.sortBy, s.set, s.min, s.max, s.stop)
	}
	f.Fuzz(func(t *testing.T, filter, ranking, value, sources, fields, sortBy, set string, min float64, max int, stop bool) {
		q := query.New()
		var err error
		if q.Filter, err = query.ParseFilter(filter); err != nil {
			q.Filter = nil
		}
		if q.Ranking, err = query.ParseRanking(ranking); err != nil {
			q.Ranking = nil
		}
		if value != "" {
			leaf := &query.TermExpr{Term: query.NewTerm(attr.FieldTitle, lang.L(value), attr.ModStem)}
			if q.Filter == nil {
				q.Filter = leaf
			} else {
				q.Filter = &query.Bin{Op: query.OpOr, L: leaf, R: q.Filter}
			}
		}
		q.Sources = strings.Fields(sources)
		if fields != "" {
			q.AnswerFields = nil
			for _, name := range strings.Fields(fields) {
				q.AnswerFields = append(q.AnswerFields, attr.Field(name))
			}
		}
		if sortBy != "" {
			q.SortBy = nil
			for i, name := range strings.Fields(sortBy) {
				q.SortBy = append(q.SortBy, query.SortKey{Field: attr.Field(name), Ascending: i%2 == 0})
			}
		}
		q.DefaultAttrSet = attr.SetName(set)
		q.MinScore, q.MaxResults, q.DropStopWords = min, max, stop
		if got, want := Canonical(q), oracleCanonical(q); got != want {
			t.Fatalf("Canonical diverged from the oracle:\n got %q\nwant %q", got, want)
		}
		if got, want := (Keyer{Scope: sources}).Key(q), oracleKey(sources, q); got != want {
			t.Fatalf("Key = %s, oracle %s", got, want)
		}
	})
}
