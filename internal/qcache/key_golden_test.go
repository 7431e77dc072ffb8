package qcache

import (
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/query"
)

// goldenKeyCases pins Keyer.Key output byte for byte. The keys were
// computed by the fmt/strings.Join renderer that predates the one-pass
// renderer, and persisted warm-start workloads and peer cache entries
// carry them, so a change here is a cache-format break, not a refactor.
var goldenKeyCases = []struct {
	name  string
	scope string
	build func(t *testing.T) *query.Query
	key   string
}{
	{"and-ab", "test", func(t *testing.T) *query.Query {
		return mustFilter(t, `((title "a") and (title "b"))`)
	}, "4c465f754aad180f82ffb9dc11efec0f"},
	{"and-ba", "test", func(t *testing.T) *query.Query {
		return mustFilter(t, `((title "b") and (title "a"))`)
	}, "4c465f754aad180f82ffb9dc11efec0f"},
	{"or-chain-nested", "", func(t *testing.T) *query.Query {
		return mustFilter(t, `(((author "x") or (title "y")) or ((body-of-text "z") and (title "a")))`)
	}, "1c315e70dde70b288fbf6011d89ce1c5"},
	{"and-not", "", func(t *testing.T) *query.Query {
		return mustFilter(t, `((title "a") and-not ((title "c") or (title "b")))`)
	}, "61a617fd8f79f3b18c6ecf6cc757462c"},
	{"prox", "", func(t *testing.T) *query.Query {
		return mustFilter(t, `((title stem "distributed") prox[3,T] ("databases"))`)
	}, "afa51eeac49149511ca2724543b90bdf"},
	{"nested-list", "search/x", func(t *testing.T) *query.Query {
		return mustRanking(t, `list(("databases" 0.3) list((title stem "db") ("q" 0.5)) ((body-of-text "b") or (body-of-text "a")))`)
	}, "9b27557bfb0b68e0641d86feec9918bd"},
	{"tagged-lstring-mods", "", func(t *testing.T) *query.Query {
		return mustFilter(t, `((title stem phonetic [en-US "behavior"]) and (date-last-modified > "1996-08-01"))`)
	}, "3300f79f0f09200c6100e1ea98f8782b"},
	{"invalid-utf8-and-escapes", "", func(t *testing.T) *query.Query {
		q := query.New()
		q.Filter = &query.TermExpr{Term: query.NewTerm(attr.FieldTitle, lang.LIn(lang.Spanish, "a\xffb \"q\" \\ é"))}
		return q
	}, "929ac5713d222937ef2535c19e7955ce"},
	{"sources", "", func(t *testing.T) *query.Query {
		q := mustRanking(t, `list(("db"))`)
		q.Sources = []string{"s2", "s1", "s3"}
		return q
	}, "66de88ac4117f9055534b6d91a471d96"},
	{"answer-fields", "", func(t *testing.T) *query.Query {
		q := mustRanking(t, `list(("db"))`)
		q.AnswerFields = []attr.Field{attr.FieldAuthor, "TITLE"}
		return q
	}, "cf6355e31dc18de37796f67805341d5f"},
	{"sort-by", "", func(t *testing.T) *query.Query {
		q := mustRanking(t, `list(("db"))`)
		q.SortBy = []query.SortKey{{Field: attr.FieldDateLastModified, Ascending: true}, {Field: query.ScoreSortField}}
		return q
	}, "c2e98849202c497812c4f3dd6570b4c2"},
	{"min-score-and-settings", "", func(t *testing.T) *query.Query {
		q := mustRanking(t, `list(("db" 0.25))`)
		q.MinScore = 0.125
		q.DropStopWords = false
		q.DefaultAttrSet = "DC-1"
		q.DefaultLanguage = lang.Tag{}
		return q
	}, "5573de8d02ca8951661444144621dfe6"},
	{"max-results-0", "", func(t *testing.T) *query.Query {
		q := mustRanking(t, `list(("db"))`)
		q.MaxResults = 0
		return q
	}, "9c60466718863e918bec2b7a7fc02fc0"},
	{"max-results-20", "", func(t *testing.T) *query.Query {
		q := mustRanking(t, `list(("db"))`)
		q.MaxResults = 20
		return q
	}, "9c60466718863e918bec2b7a7fc02fc0"},
	{"max-results-5", "", func(t *testing.T) *query.Query {
		q := mustRanking(t, `list(("db"))`)
		q.MaxResults = 5
		return q
	}, "7389774d95b8bd76ae1ee7dff7806ede"},
}

// TestKeyGolden pins the fingerprints of a fixed query table.
func TestKeyGolden(t *testing.T) {
	for _, tc := range goldenKeyCases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.build(t)
			if got := (Keyer{Scope: tc.scope}).Key(q); got != tc.key {
				t.Errorf("Key = %s, want %s\ncanonical: %s", got, tc.key, Canonical(q))
			}
		})
	}
}
