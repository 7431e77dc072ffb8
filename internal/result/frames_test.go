package result

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"starts/internal/query"
	"starts/internal/soif"
)

// terabyteClaim is a NumDocSOIFs no decoder may size an allocation by:
// eight bytes of pointer per claimed document would be 8 TiB.
const terabyteClaim = "1099511627776"

// frames encodes objs back to back, as a peer would write them.
func frames(t testing.TB, objs ...*soif.Object) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := soif.NewEncoder(&buf)
	for _, o := range objs {
		if err := enc.Encode(o); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func object(typ string, kv ...string) *soif.Object {
	o := soif.New(typ)
	for i := 0; i+1 < len(kv); i += 2 {
		o.Add(kv[i], kv[i+1])
	}
	return o
}

// allocated reports how many heap bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHugeDocCountClaim pins that a frame's NumDocSOIFs is a claim, not
// an allocation size: a ~100-byte frame claiming a terabyte of documents
// fails to decode (its documents never arrive) after allocating next to
// nothing, instead of asking the runtime for terabytes — a fatal error
// no recover can catch, so any peer could crash a metasearcher with one
// reply.
func TestHugeDocCountClaim(t *testing.T) {
	cases := []struct {
		name   string
		frame  []byte
		decode func(*soif.Decoder) error
	}{
		{
			name: "batch item",
			frame: frames(t,
				object(BatchItemType, "Index", "0"),
				object(ResultsType, "NumDocSOIFs", terabyteClaim)),
			decode: func(dec *soif.Decoder) error {
				_, _, _, err := DecodeBatchItem(dec)
				return err
			},
		},
		{
			name:  "stream document frame",
			frame: frames(t, object(StreamItemType, "Rank", "0", "NumDocSOIFs", terabyteClaim)),
			decode: func(dec *soif.Decoder) error {
				_, err := DecodeStreamItem(dec)
				return err
			},
		},
		{
			name: "stream terminal frame",
			frame: frames(t,
				object(StreamItemType, "Final", "1"),
				object(ResultsType, "NumDocSOIFs", terabyteClaim)),
			decode: func(dec *soif.Decoder) error {
				_, err := DecodeStreamItem(dec)
				return err
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			n := allocated(func() { err = c.decode(soif.NewDecoder(bytes.NewReader(c.frame))) })
			if err == nil {
				t.Fatal("decoded a frame whose documents never arrived")
			}
			if n >= 1<<20 {
				t.Errorf("decoding a %d-byte frame allocated %d bytes, want under 1 MB", len(c.frame), n)
			}
		})
	}
}

// exampleResults is the paper's Example 8/9 answer pair as one result.
func exampleResults(t testing.TB) *Results {
	f, err := query.ParseFilter("((author ``Ullman'') and (title stem ``databases''))")
	if err != nil {
		t.Fatal(err)
	}
	r, err := query.ParseRanking("list((body-of-text ``databases''))")
	if err != nil {
		t.Fatal(err)
	}
	return &Results{
		Sources:       []string{"Source-1", "Source-2"},
		ActualFilter:  f,
		ActualRanking: r,
		Documents:     []*Document{source1Doc(), source2Doc()},
	}
}

// FuzzDecodeBatchItem: decoding an arbitrary batch frame never panics,
// and a frame it accepts re-encodes to one that decodes to the same
// value — the same bytes when encoded once more.
func FuzzDecodeBatchItem(f *testing.F) {
	encode := func(index int, r *Results, itemErr error) []byte {
		var buf bytes.Buffer
		if err := EncodeBatchItem(soif.NewEncoder(&buf), index, r, itemErr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode(0, exampleResults(f), nil))
	f.Add(encode(3, &Results{}, nil))
	f.Add(encode(1, nil, errors.New("source unavailable")))
	f.Add(frames(f, object(BatchItemType, "Index", "0"), object(ResultsType, "NumDocSOIFs", terabyteClaim)))
	// reencode writes a decoded frame back out; an error frame carries
	// the server's message, not the client-side error's text.
	reencode := func(t *testing.T, index int, r *Results, itemErr error) []byte {
		var buf bytes.Buffer
		var sent error
		var be *BatchItemError
		if errors.As(itemErr, &be) {
			sent = errors.New(be.Message)
		}
		if err := EncodeBatchItem(soif.NewEncoder(&buf), index, r, sent); err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		index, r, itemErr, err := DecodeBatchItem(soif.NewDecoder(bytes.NewReader(frame)))
		if err != nil {
			return
		}
		once := reencode(t, index, r, itemErr)
		index2, r2, itemErr2, err := DecodeBatchItem(soif.NewDecoder(bytes.NewReader(once)))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v\n%s", err, once)
		}
		if twice := reencode(t, index2, r2, itemErr2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoded frame decodes to a different value:\n%s\n---\n%s", once, twice)
		}
	})
}

// FuzzDecodeStreamItem: decoding an arbitrary stream frame never
// panics, and a frame it accepts re-encodes to one that decodes to the
// same value — the same bytes when encoded once more.
func FuzzDecodeStreamItem(f *testing.F) {
	var buf bytes.Buffer
	enc := soif.NewEncoder(&buf)
	ex := exampleResults(f)
	seed := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()))
		buf.Reset()
	}
	seed(EncodeStreamDocs(enc, 0, ex.Documents))
	seed(EncodeStreamDocs(enc, 2, nil))
	seed(EncodeStreamFinal(enc, ex))
	seed(EncodeStreamError(enc, errors.New("source unavailable")))
	f.Add(frames(f, object(StreamItemType, "Rank", "0", "NumDocSOIFs", terabyteClaim)))
	f.Add(frames(f, object(StreamItemType, "Final", "1"), object(ResultsType, "NumDocSOIFs", terabyteClaim)))
	reencode := func(t *testing.T, it *StreamItem) []byte {
		var buf bytes.Buffer
		enc := soif.NewEncoder(&buf)
		var err error
		switch {
		case it.Err != nil:
			err = EncodeStreamError(enc, errors.New(it.Err.Message))
		case it.Final != nil:
			err = EncodeStreamFinal(enc, it.Final)
		default:
			err = EncodeStreamDocs(enc, it.Rank, it.Docs)
		}
		if err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		it, err := DecodeStreamItem(soif.NewDecoder(bytes.NewReader(frame)))
		if err != nil {
			return
		}
		once := reencode(t, it)
		it2, err := DecodeStreamItem(soif.NewDecoder(bytes.NewReader(once)))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v\n%s", err, once)
		}
		if twice := reencode(t, it2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoded frame decodes to a different value:\n%s\n---\n%s", once, twice)
		}
	})
}
