package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file writes the GET /v1/jobs/{id}/result document without running
// it through encoding/json.  The encoder reflects over ResultJSON, calls
// Floats.MarshalJSON once per array and then re-validates every byte that
// call returned; appendResult writes the same bytes straight into one
// pooled buffer.  The body equals what writeJSON (json.Encoder with HTML
// escaping off) writes for the same ResultJSON, byte for byte: fields in
// struct order, the omitempty fields left out when zero, a nil Floats as
// [] (its value-receiver MarshalJSON runs on nil too) and a nil Order as
// null, strings escaped as encoding/json escapes them, and a trailing
// newline.  result_test.go holds that equality three ways: differentially
// over every field, against a checked-in golden file, and under fuzzing.

// appendFloats appends f as a JSON array: NaN and ±Inf as null, every
// other value in its shortest round-tripping 'g' form.  With a memo, a
// value whose text is already in buf is copied from there instead of
// being formatted again.
func appendFloats(buf []byte, f []float64, memo *floatMemo) []byte {
	buf = append(buf, '[')
	for i, v := range f {
		if i > 0 {
			buf = append(buf, ',')
		}
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			buf = append(buf, "null"...)
		case memo != nil:
			buf = memo.append(buf, v)
		default:
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
	}
	return append(buf, ']')
}

// floatMemo maps a float's bits to where its text already sits in the
// document being written: a direct-mapped table, one slot per hash of the
// bits, the latest value written to a slot evicting the one before.
// p-values are counts over B, so a document repeats few distinct values
// thousands of times; copying their text is cheaper than formatting it.
type floatMemo [1024]struct {
	bits   uint64
	off, n uint32
}

func (m *floatMemo) append(buf []byte, v float64) []byte {
	bits := math.Float64bits(v)
	// Fibonacci hashing: p-values k/B share their low mantissa bits, so
	// the slot comes from the top bits of the product.
	s := &m[bits*0x9e3779b97f4a7c15>>54]
	if s.n != 0 && s.bits == bits {
		return append(buf, buf[s.off:s.off+s.n]...)
	}
	start := len(buf)
	buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	if uint64(len(buf)) <= math.MaxUint32 {
		s.bits, s.off, s.n = bits, uint32(start), uint32(len(buf)-start)
	}
	return buf
}

// appendInts appends v as a JSON array of integers.
func appendInts[T int | int64](buf []byte, v []T) []byte {
	buf = append(buf, '[')
	for i, x := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return append(buf, ']')
}

// appendString appends s as a JSON string.  Plain printable ASCII (every
// id and key the daemon mints) is copied between quotes; a string with a
// control byte, '"', '\\' or any non-ASCII byte goes through encoding/json
// with HTML escaping off, exactly as writeJSON sends it.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			var b bytes.Buffer
			enc := json.NewEncoder(&b)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s) // a string into a bytes.Buffer cannot fail
			return append(buf, bytes.TrimSuffix(b.Bytes(), []byte("\n"))...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendResult appends r as the result document, newline included.
func appendResult(buf []byte, r *ResultJSON) []byte {
	var memo floatMemo
	buf = append(buf, `{"id":`...)
	buf = appendString(buf, r.ID)
	buf = append(buf, `,"key":`...)
	buf = appendString(buf, r.Key)
	buf = append(buf, `,"stat":`...)
	buf = appendFloats(buf, r.Stat, &memo)
	buf = append(buf, `,"raw_p":`...)
	buf = appendFloats(buf, r.RawP, &memo)
	buf = append(buf, `,"adj_p":`...)
	buf = appendFloats(buf, r.AdjP, &memo)
	buf = append(buf, `,"order":`...)
	if r.Order == nil {
		buf = append(buf, "null"...)
	} else {
		buf = appendInts(buf, r.Order)
	}
	buf = append(buf, `,"b":`...)
	buf = strconv.AppendInt(buf, r.B, 10)
	buf = append(buf, `,"complete":`...)
	buf = strconv.AppendBool(buf, r.Complete)
	buf = append(buf, `,"nprocs":`...)
	buf = strconv.AppendInt(buf, int64(r.NProcs), 10)
	buf = append(buf, `,"cache_hit":`...)
	buf = strconv.AppendBool(buf, r.CacheHit)
	if r.Mode != "" {
		buf = append(buf, `,"mode":`...)
		buf = appendString(buf, r.Mode)
	}
	if r.PlannedB != 0 {
		buf = append(buf, `,"planned_b":`...)
		buf = strconv.AppendInt(buf, r.PlannedB, 10)
	}
	if len(r.BEffective) != 0 {
		buf = append(buf, `,"b_effective":`...)
		buf = appendInts(buf, r.BEffective)
	}
	if r.PermsSaved != 0 {
		buf = append(buf, `,"perms_saved":`...)
		buf = strconv.AppendInt(buf, r.PermsSaved, 10)
	}
	return append(buf, "}\n"...)
}

// resultBufs recycles result-document buffers across GETs.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeResult sends r as a 200 with one Write and a Content-Length.
func writeResult(w http.ResponseWriter, r *ResultJSON) {
	bp := resultBufs.Get().(*[]byte)
	buf := appendResult((*bp)[:0], r)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	*bp = buf
	resultBufs.Put(bp)
}
