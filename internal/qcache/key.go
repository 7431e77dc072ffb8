// Package qcache is the metasearcher's query-result cache: a sharded
// LRU+TTL store keyed on a canonical query fingerprint, with singleflight
// coalescing (N concurrent identical queries cost one fan-out),
// stale-while-revalidate (an expired entry is served immediately while a
// background refresh runs) and a bounded admission gate that sheds load
// with a typed error instead of queueing without limit.
//
// Under real traffic query distributions are heavily skewed; a
// metasearcher that re-fans-out to every source for every repeated query
// wastes the scarce resource the STARTS paper centers on — source round
// trips. qcache shields the sources the way ZBroker caches at the broker.
//
// qcache imports only the leaf object packages (query, result, meta,
// source), client (for the conn contract) and obs, so core, client
// wrappers and servers all import qcache and the dependency keeps
// pointing outward.
package qcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"starts/internal/attr"
	"starts/internal/query"
)

// Keyer derives cache keys from queries. Scope namespaces the key space:
// the metasearcher mixes in everything outside the query that shapes the
// answer (selector, merger, source cap, registered source set); a
// per-source conn cache mixes in the source ID. Two Keyers with distinct
// scopes never collide.
type Keyer struct {
	Scope string
}

// Key returns the canonical fingerprint of q under the keyer's scope:
// a hex digest of the scope plus Canonical(q).
func (k Keyer) Key(q *query.Query) string {
	sum := sha256.Sum256([]byte(k.Scope + "\x00" + Canonical(q)))
	return hex.EncodeToString(sum[:16])
}

// Canonical renders a query in a canonical form in which semantically
// identical queries print identically:
//
//   - commutative and/or filter and ranking operands are flattened across
//     associativity and sorted, so `a and b` and `b and a` (and
//     `(a and b) and c` vs `a and (b and c)`) share a fingerprint —
//     and-not and prox stay order-sensitive;
//   - term fields, weights and comparison modifiers are normalized to
//     their documented defaults (unset field = any, weight 0 = 1), and
//     modifier order within a term is sorted;
//   - the Sources list is sorted (same-resource duplicate elimination is
//     set-shaped);
//   - the result specification is included with its effective defaults
//     applied, so a query relying on a default and one spelling it out
//     share an entry.
func Canonical(q *query.Query) string {
	var b strings.Builder
	b.WriteString("f=")
	b.WriteString(canonExpr(q.Filter))
	b.WriteString(";r=")
	b.WriteString(canonExpr(q.Ranking))
	fmt.Fprintf(&b, ";stop=%t;set=%s;lang=%s",
		q.DropStopWords, strings.ToLower(string(q.DefaultAttrSet)), q.DefaultLanguage.String())
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
		b.WriteString(s.String())
	}
	fmt.Fprintf(&b, ";min=%g;max=%d", q.MinScore, q.EffectiveMaxResults())
	return b.String()
}

// canonExpr renders one expression tree canonically. Chains of the same
// commutative operator (and, or) are flattened and their operands sorted;
// everything else keeps its structure.
func canonExpr(e query.Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *query.TermExpr:
		return canonTerm(n.Term)
	case *query.Bin:
		if n.Op == query.OpAnd || n.Op == query.OpOr {
			ops := flatten(n.Op, n, nil)
			sort.Strings(ops)
			return "(" + string(n.Op) + " " + strings.Join(ops, " ") + ")"
		}
		return "(" + string(n.Op) + " " + canonExpr(n.L) + " " + canonExpr(n.R) + ")"
	case *query.Prox:
		return fmt.Sprintf("(prox[%d,%t] %s %s)", n.Dist, n.Ordered, canonTerm(n.L.Term), canonTerm(n.R.Term))
	case *query.List:
		parts := make([]string, len(n.Items))
		for i, it := range n.Items {
			parts[i] = canonExpr(it)
		}
		return "list(" + strings.Join(parts, " ") + ")"
	default:
		// Unknown node types fall back to their printed form.
		return e.String()
	}
}

// flatten collects the canonical operand strings of a same-operator
// chain: (a and (b and c)) and ((a and b) and c) both yield [a b c].
func flatten(op query.Op, e query.Expr, dst []string) []string {
	if b, ok := e.(*query.Bin); ok && b.Op == op {
		return flatten(op, b.R, flatten(op, b.L, dst))
	}
	return append(dst, canonExpr(e))
}

// canonTerm renders a term with defaults applied (unset field = any,
// weight 0 = 1, implicit "=" comparison) and modifiers sorted, so
// spelled-out defaults and omitted ones fingerprint identically.
func canonTerm(t query.Term) string {
	mods := make([]string, 0, len(t.Mods))
	hasCmp := false
	for _, m := range t.Mods {
		if m.IsComparison() {
			hasCmp = true
		}
		mods = append(mods, m.String())
	}
	if !hasCmp {
		mods = append(mods, attr.ModEQ.String())
	}
	sort.Strings(mods)
	return "(" + string(t.EffectiveField()) + " " + strings.Join(mods, " ") +
		" " + t.Value.String() + " " + strconv.FormatFloat(t.EffectiveWeight(), 'g', -1, 64) + ")"
}
