package query

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/lang"
)

// paperExpressions seeds the parser fuzz targets: the expressions of the
// paper's Examples 1-5 and 8-9 (the actually-processed queries and the
// TermStats terms of the two sources' results), plus the field,
// modifier and language vocabulary of Examples 10-12.
var paperExpressions = []string{
	"((author ``Ullman'') and (title stem ``databases''))",
	"list((body-of-text ``distributed'') (body-of-text ``databases''))",
	"(``digital'' prox[3,T] ``libraries'')",
	"((title ``digital'') prox[1,F] (title ``libraries''))",
	"(``distributed'' and ``databases'')",
	"list((``distributed'' 0.7) (``databases'' 0.3))",
	`((author "Ullman") and (title stem "databases"))`,
	`(body-of-text "databases")`,
	`(body-of-text "distributed")`,
	`(date-last-modified > "1996-08-01")`,
	`((title [en-US "databases"]) or (title [es "datos"]))`,
	`((author phonetic "Ullman") and-not (title right-truncation case-sensitive "Data"))`,
	`list((body-of-text thesaurus "behavior" 0.5) (any stem [en "colour"]))`,
	`(linkage "http://www-db.stanford.edu/~ullman/pub/dood.ps")`,
}

// checkParse is the shared body of the parser fuzz targets: parsing
// never panics, a nesting past MaxDepth is ErrTooDeep, and whatever
// parses prints to text that parses back and prints identically.
func checkParse(t *testing.T, src string, parse func(string) (Expr, error)) {
	deep := strings.Repeat("(", MaxDepth+1) + src + strings.Repeat(")", MaxDepth+1)
	if _, err := parse(deep); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("%d enclosing parens: err = %v, want ErrTooDeep", MaxDepth+1, err)
	}
	e, err := parse(src)
	if err != nil || e == nil {
		return
	}
	printed := e.String()
	back, err := parse(printed)
	if err != nil {
		t.Fatalf("printed form %q of %q does not parse: %v", printed, src, err)
	}
	if again := back.String(); again != printed {
		t.Fatalf("print is not stable across a parse:\n first %q\nsecond %q", printed, again)
	}
}

func FuzzParseFilter(f *testing.F) {
	for _, s := range paperExpressions {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) { checkParse(t, src, ParseFilter) })
}

func FuzzParseRanking(f *testing.F) {
	for _, s := range paperExpressions {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) { checkParse(t, src, ParseRanking) })
}

// TestNestingBound is the regression test for the unbounded parser
// recursion: half a million nested parens used to parse (in ~650ms) into
// a tree every recursive walker then re-traversed. They are now rejected
// with ErrTooDeep as soon as the parser passes MaxDepth.
func TestNestingBound(t *testing.T) {
	const n = 500_000
	src := strings.Repeat("(", n) + `"a"` + strings.Repeat(")", n)
	start := time.Now()
	_, err := ParseFilter(src)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTooDeep) {
		t.Fatalf("err = %v, want ErrTooDeep", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("rejecting %d nested parens took %v, want well under 50ms", n, elapsed)
	}
	lists := strings.Repeat("list(", MaxDepth+1) + `"a"` + strings.Repeat(")", MaxDepth+1)
	if _, err := ParseRanking(lists); !errors.Is(err, ErrTooDeep) {
		t.Errorf("nested lists: err = %v, want ErrTooDeep", err)
	}
	// Exactly MaxDepth levels is still a legal query.
	ok := strings.Repeat("(", MaxDepth) + `"a"` + strings.Repeat(")", MaxDepth)
	if _, err := ParseFilter(ok); err != nil {
		t.Errorf("%d nested parens: %v", MaxDepth, err)
	}
	if _, err := ParseFilter(`(("a") and ("b"))`); err != nil {
		t.Errorf("sibling parens counted as nesting: %v", err)
	}
}

// TestPrintPrimitivesMatchFmt pins the append-based printers to the fmt
// verbs they replaced: %g for weights and scores, and the
// "(%s prox[%d,%s] %s)" layout for proximity.
func TestPrintPrimitivesMatchFmt(t *testing.T) {
	for _, f := range []float64{0, 1, 0.7, 0.3, 1e-7, 1e21, 123456789, 0.1 + 0.2, -0.5,
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		if got, want := trimFloat(f), fmt.Sprintf("%g", f); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", f, got, want)
		}
	}
	l := &TermExpr{Term{Field: attr.FieldTitle, Mods: []attr.Modifier{attr.ModStem}, Value: lang.L("digital")}}
	r := &TermExpr{Term{Value: lang.LIn(lang.EnglishUS, "libraries"), Weight: 0.25}}
	for _, ordered := range []bool{true, false} {
		p := &Prox{L: l, R: r, Dist: 12, Ordered: ordered}
		o := "F"
		if ordered {
			o = "T"
		}
		if got, want := p.String(), fmt.Sprintf("(%s prox[%d,%s] %s)", p.L, p.Dist, o, p.R); got != want {
			t.Errorf("Prox.String = %q, want %q", got, want)
		}
	}
}

// TestExponentWeightsRoundTrip: weights small enough that %g prints them
// in exponent form (1e-07) parse back, so every printable ranking
// expression is parseable.
func TestExponentWeightsRoundTrip(t *testing.T) {
	e, err := ParseRanking(`list(("a" 0.0000001) ("b" 2.5E-3))`)
	if err != nil {
		t.Fatal(err)
	}
	printed := e.String()
	if printed != `list(("a" 1e-07) ("b" 0.0025))` {
		t.Errorf("printed = %s", printed)
	}
	back, err := ParseRanking(printed)
	if err != nil || back.String() != printed {
		t.Errorf("reparse of %s: %v, %v", printed, back, err)
	}
	for _, bad := range []string{`list(("a" 1e))`, `list(("a" 1e+))`, `list(("a" e5))`} {
		if _, err := ParseRanking(bad); err == nil {
			t.Errorf("ParseRanking(%s) accepted a malformed number", bad)
		}
	}
}
