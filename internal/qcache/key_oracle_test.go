package qcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/query"
)

// This file is a frozen copy of the fmt/strings.Join canonical renderer
// the one-pass renderer in key.go replaced. It is the oracle
// FuzzKeyMatchesOracle checks the production renderer against, so it
// deliberately shares no printing code with the packages under test:
// l-strings, tags and modifiers are printed by local copies too.

func oracleKey(scope string, q *query.Query) string {
	sum := sha256.Sum256([]byte(scope + "\x00" + oracleCanonical(q)))
	return hex.EncodeToString(sum[:16])
}

func oracleCanonical(q *query.Query) string {
	var b strings.Builder
	b.WriteString("f=")
	b.WriteString(oracleExpr(q.Filter))
	b.WriteString(";r=")
	b.WriteString(oracleExpr(q.Ranking))
	fmt.Fprintf(&b, ";stop=%t;set=%s;lang=%s",
		q.DropStopWords, strings.ToLower(string(q.DefaultAttrSet)), oracleTag(q.DefaultLanguage))
	srcs := append([]string(nil), q.Sources...)
	sort.Strings(srcs)
	b.WriteString(";srcs=")
	b.WriteString(strings.Join(srcs, ","))
	b.WriteString(";ans=")
	for i, f := range q.EffectiveAnswerFields() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(f))
	}
	b.WriteString(";sort=")
	for i, s := range q.EffectiveSort() {
		if i > 0 {
			b.WriteByte(',')
		}
		dir := "d"
		if s.Ascending {
			dir = "a"
		}
		b.WriteString(string(s.Field) + " " + dir)
	}
	fmt.Fprintf(&b, ";min=%g;max=%d", q.MinScore, q.EffectiveMaxResults())
	return b.String()
}

func oracleExpr(e query.Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *query.TermExpr:
		return oracleTerm(n.Term)
	case *query.Bin:
		if n.Op == query.OpAnd || n.Op == query.OpOr {
			ops := oracleFlatten(n.Op, n, nil)
			sort.Strings(ops)
			return "(" + string(n.Op) + " " + strings.Join(ops, " ") + ")"
		}
		return "(" + string(n.Op) + " " + oracleExpr(n.L) + " " + oracleExpr(n.R) + ")"
	case *query.Prox:
		return fmt.Sprintf("(prox[%d,%t] %s %s)", n.Dist, n.Ordered, oracleTerm(n.L.Term), oracleTerm(n.R.Term))
	case *query.List:
		parts := make([]string, len(n.Items))
		for i, it := range n.Items {
			parts[i] = oracleExpr(it)
		}
		return "list(" + strings.Join(parts, " ") + ")"
	default:
		return e.String()
	}
}

func oracleFlatten(op query.Op, e query.Expr, dst []string) []string {
	if b, ok := e.(*query.Bin); ok && b.Op == op {
		return oracleFlatten(op, b.R, oracleFlatten(op, b.L, dst))
	}
	return append(dst, oracleExpr(e))
}

func oracleTerm(t query.Term) string {
	mods := make([]string, 0, len(t.Mods))
	hasCmp := false
	for _, m := range t.Mods {
		if m.IsComparison() {
			hasCmp = true
		}
		mods = append(mods, strings.ToLower(string(m)))
	}
	if !hasCmp {
		mods = append(mods, string(attr.ModEQ))
	}
	sort.Strings(mods)
	return "(" + string(t.EffectiveField()) + " " + strings.Join(mods, " ") +
		" " + oracleLString(t.Value) + " " + strconv.FormatFloat(t.EffectiveWeight(), 'g', -1, 64) + ")"
}

func oracleLString(l lang.LString) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range l.Text {
		if r == '"' || r == '\\' {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	b.WriteByte('"')
	if l.Tag.IsZero() {
		return b.String()
	}
	return "[" + oracleTag(l.Tag) + " " + b.String() + "]"
}

func oracleTag(t lang.Tag) string {
	if t.Language == "" {
		return ""
	}
	if t.Country == "" {
		return t.Language
	}
	return t.Language + "-" + t.Country
}
