package result

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"starts/internal/query"
	"starts/internal/soif"
)

// BatchItemType is the SOIF template type framing one item of a
// multi-query (batch) response stream. STARTS' same-resource facility
// permits one request to carry several queries for a source; the batch
// response interleaves nothing — it is a sequence of self-delimiting
// frames, each an @SQBatchItem header followed (on success) by that
// item's complete @SQResults object stream:
//
//	@SQBatchItem{ Index{1}: 2 }
//	@SQResults{ ... NumDocSOIFs{1}: 3 }
//	@SQRDocument{ ... } ×3
//
// Index names the request position the frame answers, so the server may
// emit frames in completion order rather than request order. A failed
// item carries an Error attribute instead of a result stream, so one bad
// query never poisons its batch. NumDocSOIFs (always present in the
// header this package writes) tells a streaming decoder exactly how many
// document objects to consume, which is what makes the frames
// self-delimiting without any outer length prefix.
const BatchItemType = "SQBatchItem"

// BatchItemError is a per-item failure reported inside an otherwise
// healthy batch response. It is the client-side rendering of a frame's
// Error attribute.
type BatchItemError struct {
	// Index is the request position of the failed item.
	Index int
	// Message is the server's error text.
	Message string
}

// Error implements error.
func (e *BatchItemError) Error() string {
	return fmt.Sprintf("result: batch item %d failed at source: %s", e.Index, e.Message)
}

// EncodeBatchItem writes one batch frame to enc: the @SQBatchItem header
// for index, then — when itemErr is nil — r's @SQResults object stream.
// With a non-nil itemErr the frame carries the error text and no result
// objects.
func EncodeBatchItem(enc *soif.Encoder, index int, r *Results, itemErr error) error {
	head := soif.New(BatchItemType)
	head.Add("Version", query.Version)
	head.Add("Index", strconv.Itoa(index))
	if itemErr != nil {
		head.Add("Error", itemErr.Error())
		return enc.Encode(head)
	}
	if err := enc.Encode(head); err != nil {
		return err
	}
	for _, o := range r.ToSOIF() {
		if err := enc.Encode(o); err != nil {
			return err
		}
	}
	return nil
}

// DecodeBatchItem reads the next complete frame from dec. It returns the
// frame's index and either its decoded result or its per-item error
// (itemErr, a *BatchItemError). A clean end of stream returns io.EOF in
// err; any other err means the stream itself is broken mid-frame and no
// further frames can be trusted.
func DecodeBatchItem(dec *soif.Decoder) (index int, r *Results, itemErr, err error) {
	head, err := dec.Decode()
	if errors.Is(err, io.EOF) {
		return 0, nil, nil, io.EOF
	}
	if err != nil {
		return 0, nil, nil, fmt.Errorf("result: reading batch frame header: %w", err)
	}
	if !strings.EqualFold(head.Type, BatchItemType) {
		return 0, nil, nil, fmt.Errorf("result: expected @%s frame, found @%s", BatchItemType, head.Type)
	}
	v, ok := head.Get("Index")
	if !ok {
		return 0, nil, nil, fmt.Errorf("result: @%s frame missing Index", BatchItemType)
	}
	index, err = strconv.Atoi(strings.TrimSpace(v))
	if err != nil || index < 0 {
		return 0, nil, nil, fmt.Errorf("result: invalid batch frame Index %q", v)
	}
	if msg, failed := head.Get("Error"); failed {
		return index, nil, &BatchItemError{Index: index, Message: msg}, nil
	}
	// The item's own object stream: the @SQResults header names how many
	// @SQRDocument objects follow, making the frame self-delimiting.
	rh, err := dec.Decode()
	if err != nil {
		return index, nil, nil, fmt.Errorf("result: batch item %d: reading @%s header: %w", index, ResultsType, err)
	}
	if !strings.EqualFold(rh.Type, ResultsType) {
		return index, nil, nil, fmt.Errorf("result: batch item %d: expected @%s, found @%s", index, ResultsType, rh.Type)
	}
	r, err = decodeResultsBody(dec, rh)
	if err != nil {
		return index, nil, nil, fmt.Errorf("result: batch item %d: %w", index, err)
	}
	return index, r, nil, nil
}
