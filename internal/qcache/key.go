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
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
	"sync"

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
// a hex digest of the scope plus Canonical(q). The scope and canonical
// form are rendered into one pooled buffer and hashed in place, so the
// returned string is the call's only allocation in the common case.
func (k Keyer) Key(q *query.Query) string {
	r := getRenderer()
	r.b = append(append(r.b, k.Scope...), 0)
	r.query(q)
	sum := sha256.Sum256(r.b)
	putRenderer(r)
	var hexed [32]byte
	hex.Encode(hexed[:], sum[:16])
	return string(hexed[:])
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
	r := getRenderer()
	r.query(q)
	s := string(r.b)
	putRenderer(r)
	return s
}

// renderer is the scratch state of one canonical rendering. Renderers
// are pooled, so a steady stream of keys allocates no buffers.
type renderer struct {
	b     []byte
	spans []span   // operand spans of the and/or chains being rendered
	tmp   []byte   // copy of one chain's operands while they are reordered
	strs  []string // sorted sources, or one term's sorted modifiers
}

// span is one rendered operand: b[start:end].
type span struct{ start, end int }

var renderers = sync.Pool{New: func() any { return new(renderer) }}

func getRenderer() *renderer { return renderers.Get().(*renderer) }

// maxPooledBuf keeps one pathological query from pinning a huge buffer
// in the pool.
const maxPooledBuf = 64 << 10

func putRenderer(r *renderer) {
	if cap(r.b) > maxPooledBuf || cap(r.tmp) > maxPooledBuf {
		return
	}
	r.b, r.tmp, r.spans = r.b[:0], r.tmp[:0], r.spans[:0]
	renderers.Put(r)
}

// query appends Canonical(q) to r.b.
func (r *renderer) query(q *query.Query) {
	r.b = append(r.b, "f="...)
	r.expr(q.Filter)
	r.b = append(r.b, ";r="...)
	r.expr(q.Ranking)
	r.b = strconv.AppendBool(append(r.b, ";stop="...), q.DropStopWords)
	r.b = append(append(r.b, ";set="...), strings.ToLower(string(q.DefaultAttrSet))...)
	r.b = q.DefaultLanguage.AppendTo(append(r.b, ";lang="...))
	r.b = append(r.b, ";srcs="...)
	r.joinSorted(q.Sources, ',')
	// The answer fields and sort keys are EffectiveAnswerFields and
	// EffectiveSort, spelled out to skip their slice allocations.
	r.b = append(r.b, ";ans="...)
	fields := q.AnswerFields
	if len(fields) == 0 {
		fields = []attr.Field{attr.FieldTitle}
	}
	hasLinkage := false
	for i, f := range fields {
		f = attr.Normalize(f)
		hasLinkage = hasLinkage || f == attr.FieldLinkage
		if i > 0 {
			r.b = append(r.b, ',')
		}
		r.b = append(r.b, f...)
	}
	if !hasLinkage {
		r.b = append(append(r.b, ','), attr.FieldLinkage...)
	}
	r.b = append(r.b, ";sort="...)
	if len(q.SortBy) == 0 {
		r.b = append(r.b, query.ScoreSortField+" d"...)
	}
	for i, k := range q.SortBy {
		if i > 0 {
			r.b = append(r.b, ',')
		}
		dir := " d"
		if k.Ascending {
			dir = " a"
		}
		r.b = append(append(r.b, k.Field...), dir...)
	}
	r.b = strconv.AppendFloat(append(r.b, ";min="...), q.MinScore, 'g', -1, 64)
	r.b = strconv.AppendInt(append(r.b, ";max="...), int64(q.EffectiveMaxResults()), 10)
}

// joinSorted appends ss in sorted order, separated by sep. Already
// sorted input (the common case) is appended without copying.
func (r *renderer) joinSorted(ss []string, sep byte) {
	if !slices.IsSorted(ss) {
		r.strs = append(r.strs[:0], ss...)
		slices.Sort(r.strs)
		ss = r.strs
	}
	for i, s := range ss {
		if i > 0 {
			r.b = append(r.b, sep)
		}
		r.b = append(r.b, s...)
	}
	clear(r.strs)
	r.strs = r.strs[:0]
}

// expr appends one expression tree canonically. Chains of the same
// commutative operator (and, or) are flattened and their operands sorted;
// everything else keeps its structure.
func (r *renderer) expr(e query.Expr) {
	switch n := e.(type) {
	case nil:
	case *query.TermExpr:
		r.term(n.Term)
	case *query.Bin:
		r.b = append(append(append(r.b, '('), n.Op...), ' ')
		if n.Op == query.OpAnd || n.Op == query.OpOr {
			base := len(r.spans)
			r.chain(n.Op, n, base)
			r.sortOperands(base)
			r.spans = r.spans[:base]
		} else {
			r.expr(n.L)
			r.b = append(r.b, ' ')
			r.expr(n.R)
		}
		r.b = append(r.b, ')')
	case *query.Prox:
		r.b = strconv.AppendInt(append(r.b, "(prox["...), int64(n.Dist), 10)
		r.b = strconv.AppendBool(append(r.b, ','), n.Ordered)
		r.b = append(r.b, "] "...)
		r.term(n.L.Term)
		r.b = append(r.b, ' ')
		r.term(n.R.Term)
		r.b = append(r.b, ')')
	case *query.List:
		r.b = append(r.b, "list("...)
		for i, it := range n.Items {
			if i > 0 {
				r.b = append(r.b, ' ')
			}
			r.expr(it)
		}
		r.b = append(r.b, ')')
	default:
		// Unknown node types fall back to their printed form.
		r.b = append(r.b, e.String()...)
	}
}

// chain renders the operands of a same-operator chain in place, space
// separated, and records each one's span: (a and (b and c)) and
// ((a and b) and c) both render a b c.
func (r *renderer) chain(op query.Op, e query.Expr, base int) {
	if b, ok := e.(*query.Bin); ok && b.Op == op {
		r.chain(op, b.L, base)
		r.chain(op, b.R, base)
		return
	}
	if len(r.spans) > base {
		r.b = append(r.b, ' ')
	}
	start := len(r.b)
	r.expr(e)
	r.spans = append(r.spans, span{start, len(r.b)})
}

// sortOperands reorders the chain operands recorded from r.spans[base:]
// into byte order, the order sort.Strings gives their strings. The
// rendered region keeps its length, so it is rewritten in place, and an
// already sorted chain is left untouched.
func (r *renderer) sortOperands(base int) {
	ops := r.spans[base:]
	sorted := true
	for i := 1; i < len(ops) && sorted; i++ {
		sorted = bytes.Compare(r.b[ops[i-1].start:ops[i-1].end], r.b[ops[i].start:ops[i].end]) <= 0
	}
	if sorted {
		return
	}
	from := ops[0].start
	r.tmp = append(r.tmp[:0], r.b[from:ops[len(ops)-1].end]...)
	text := func(s span) []byte { return r.tmp[s.start-from : s.end-from] }
	slices.SortFunc(ops, func(a, b span) int { return bytes.Compare(text(a), text(b)) })
	at := from
	for i, s := range ops {
		if i > 0 {
			r.b[at] = ' '
			at++
		}
		at += copy(r.b[at:], text(s))
	}
}

// term appends a term with defaults applied (unset field = any, weight
// 0 = 1, implicit "=" comparison) and modifiers sorted, so spelled-out
// defaults and omitted ones fingerprint identically.
func (r *renderer) term(t query.Term) {
	r.b = append(append(append(r.b, '('), t.EffectiveField()...), ' ')
	mods := r.strs[:0]
	hasCmp := false
	for _, m := range t.Mods {
		hasCmp = hasCmp || m.IsComparison()
		mods = append(mods, m.String())
	}
	if !hasCmp {
		mods = append(mods, string(attr.ModEQ))
	}
	r.strs = mods
	r.joinSorted(mods, ' ')
	r.b = t.Value.AppendTo(append(r.b, ' '))
	r.b = strconv.AppendFloat(append(r.b, ' '), t.EffectiveWeight(), 'g', -1, 64)
	r.b = append(r.b, ')')
}
