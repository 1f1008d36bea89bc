package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sprint/internal/microarray"
)

// referenceNumber is the conversion parseNumber must reproduce: the JSON
// grammar check, then strconv.ParseFloat.
func referenceNumber(tok []byte) (float64, error) {
	if !isJSONNumber(tok) {
		return 0, fmt.Errorf("invalid JSON number %q", tok)
	}
	return strconv.ParseFloat(string(tok), 64)
}

// checkNumber compares parseNumber with referenceNumber on tok: the same
// accept/reject decision, the same error text and the same bits, sign of
// zero included.  It reports whether the fast path converted tok.
func checkNumber(t testing.TB, tok []byte) (fast bool) {
	got, gerr := parseNumber(tok)
	want, werr := referenceNumber(tok)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%q: error %v, want %v", tok, gerr, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: %v (%#016x), want %v (%#016x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	_, n, ok := fastNumber(tok)
	return ok && n == len(tok)
}

// TestPow10Table derives every row of pow10Mantissas with math/big: 10^q
// scaled by a power of two into [2^127, 2^128) and rounded down.
func TestPow10Table(t *testing.T) {
	if len(pow10Mantissas) != pow10MaxExp10-pow10MinExp10+1 {
		t.Fatalf("%d rows for exponents [%d, %d]", len(pow10Mantissas), pow10MinExp10, pow10MaxExp10)
	}
	one := big.NewInt(1)
	low64 := new(big.Int).Sub(new(big.Int).Lsh(one, 64), one)
	for q := pow10MinExp10; q <= pow10MaxExp10; q++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		var m *big.Int
		switch l := p.BitLen(); {
		case q < 0:
			m = new(big.Int).Quo(new(big.Int).Lsh(one, uint(127+l)), p)
		case l <= 128:
			m = new(big.Int).Lsh(p, uint(128-l))
		default:
			m = new(big.Int).Rsh(p, uint(l-128))
		}
		if m.BitLen() != 128 {
			t.Fatalf("1e%d: derived mantissa has %d bits", q, m.BitLen())
		}
		lo := new(big.Int).And(m, low64).Uint64()
		hi := new(big.Int).Rsh(m, 64).Uint64()
		if row := pow10Mantissas[q-pow10MinExp10]; row != [2]uint64{lo, hi} {
			t.Errorf("1e%d: table {%#016x, %#016x}, math/big {%#016x, %#016x}", q, row[0], row[1], lo, hi)
		}
	}
}

// TestEiselLemireEveryTableRow drives every row of the powers table with
// 1000 random 17–19 digit mantissas: all of them exceed 2^53, so each
// token is decided by Eisel–Lemire at that row or declined, and every
// one must match ParseFloat.
func TestEiselLemireEveryTableRow(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for q := pow10MinExp10; q <= pow10MaxExp10; q++ {
		fast := 0
		for k := 0; k < 1000; k++ {
			digits := 17 + r.IntN(3)
			lo := uint64(math.Pow10(digits - 1))
			man := lo + r.Uint64N(9*lo)
			tok := strconv.AppendUint(nil, man, 10)
			tok = append(tok, 'e')
			tok = strconv.AppendInt(tok, int64(q), 10)
			if checkNumber(t, tok) {
				fast++
			}
		}
		// Near 1e0 many products are exact binary values (q = 0) or lie
		// just below one (q = -1, -2 with mantissas divisible by 5 or
		// 25); Eisel–Lemire declines those as ambiguous, up to ~8 % of a
		// row, and ParseFloat decides them.
		if fast < 900 {
			t.Errorf("1e%d: the fast path converted only %d of 1000 tokens", q, fast)
		}
	}
}

// TestFastNumberMatchesParseFloat compares parseNumber with ParseFloat on
// ten million tokens rendered in the 'g', 'e', 'E' and 'f' formats at
// shortest and fixed precisions, from full-range random bit patterns,
// values of everyday magnitude, plain integers up to 2^64 and integers
// exactly halfway between two float64s.
func TestFastNumberMatchesParseFloat(t *testing.T) {
	const tokens = 10_000_000
	workers := runtime.GOMAXPROCS(0)
	var fast atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
			var tok []byte
			n := 0
			for k := 0; k < tokens/workers; k++ {
				tok = appendRandomNumber(tok[:0], r)
				got, gerr := parseNumber(tok)
				want, werr := referenceNumber(tok)
				if (gerr == nil) != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%q: %v (%v), want %v (%v)", tok, got, gerr, want, werr)
					return
				}
				if _, m, ok := fastNumber(tok); ok && m == len(tok) {
					n++
				}
			}
			fast.Add(int64(n))
		}(uint64(w))
	}
	wg.Wait()
	if f := fast.Load(); f < tokens/4 {
		t.Errorf("the fast path converted only %d of %d tokens", f, tokens)
	}
}

// appendRandomNumber appends one random float64 rendering to dst.
func appendRandomNumber(dst []byte, r *rand.Rand) []byte {
	switch r.IntN(8) {
	case 0: // any finite float64
		v := math.Float64frombits(r.Uint64())
		for math.IsNaN(v) || math.IsInf(v, 0) {
			v = math.Float64frombits(r.Uint64())
		}
		return appendFormatted(dst, v, r)
	case 1: // an integer of up to 20 digits, sometimes with a zero fraction
		neg := r.IntN(2) == 0
		if neg {
			dst = append(dst, '-')
		}
		dst = strconv.AppendUint(dst, r.Uint64()>>r.IntN(64), 10)
		if r.IntN(4) == 0 {
			dst = append(dst, ".0"...)
		}
		return dst
	case 2: // exactly halfway between two float64s above 2^53
		m := 1<<52 | r.Uint64N(1<<52)
		return strconv.AppendUint(dst, (2*m+1)<<r.IntN(11), 10)
	default: // everyday magnitudes
		v := (1 + 9*r.Float64()) * math.Pow10(r.IntN(61)-30)
		if r.IntN(2) == 0 {
			v = -v
		}
		return appendFormatted(dst, v, r)
	}
}

func appendFormatted(dst []byte, v float64, r *rand.Rand) []byte {
	switch r.IntN(4) {
	case 0:
		return strconv.AppendFloat(dst, v, 'e', r.IntN(21)-1, 64)
	case 1:
		return strconv.AppendFloat(dst, v, 'E', r.IntN(21)-1, 64)
	case 2:
		if a := math.Abs(v); a > 1e-20 && a < 1e25 {
			return strconv.AppendFloat(dst, v, 'f', r.IntN(22)-1, 64)
		}
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// numberSeeds are the corpus both fuzz targets start from: 17-digit cells
// like the paper-shaped bench matrix, signed zero, the subnormal and
// normal boundaries, Clinger's and Eisel–Lemire's edge cases (2^53+1 is a
// halfway case, 1e23 is not exactly representable), 19- and 20-digit
// mantissas, and inputs the JSON grammar rejects.
var numberSeeds = []string{
	"7.8910496522158331", "12.345678901234567", "-0.58209735928451836",
	"-0", "0", "0.0", "-0.0e-5", "5e-324", "2.2250738585072011e-308",
	"1.7976931348623157e308", "9007199254740993", "1e23", "1E+22",
	"1234567890123456789", "12345678901234567890", "0.1234567890123456789e5",
	"1e400", "-1e400", "1e-400",
	"01", "1.", ".5", "1e", "+1", "NaN", "Infinity", "0x1p3", "1_0", "-", "",
}

func FuzzNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		checkNumber(t, []byte(tok))
	})
}

// chunkReader returns 1…max bytes per Read, cycling, so the scanner's
// bufio windows are assembled from short reads.
type chunkReader struct {
	s      string
	k, max int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.s == "" {
		return 0, io.EOF
	}
	c.k = c.k%c.max + 1
	n := copy(p[:min(len(p), c.k)], c.s)
	c.s = c.s[n:]
	return n, nil
}

// FuzzScanFlat checks scanFlat against encoding/json decoding the same
// array into []*float64 (null as NaN): the same accept/reject decision
// and the same cell bits.  pad spaces before the array move every token
// across the scanner's window edge.
func FuzzScanFlat(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add(s, uint16(0), uint8(0))
		f.Add("1,"+s+",null", uint16(flatWindow-6), uint8(6))
	}
	f.Add("12345.678,9", uint16(flatWindow-5), uint8(0))
	f.Add(" null , -0 ,5e-324\n", uint16(flatWindow-3), uint8(255))
	f.Add("1]x[2", uint16(0), uint8(0))
	f.Add("1],[2", uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, cells string, pad uint16, chunk uint8) {
		if len(cells) > 2048 {
			return // keeps every token under the scanner's window limit
		}
		arr := "[" + cells + "]"
		var want []*float64
		jerr := json.Unmarshal([]byte(arr), &want)
		stream := ":" + strings.Repeat(" ", int(pad)%(flatWindow+64)) + arr + "}"
		br := bufio.NewReader(&chunkReader{s: stream, max: 1 + int(chunk)})
		got, absent, err := scanFlat(br, 0)
		rest, _ := io.ReadAll(br)
		// The array must end at the appended ']' — whatever followed an
		// earlier close is left unread — to count as the same document.
		scanned := err == nil && !absent && string(rest) == "}"
		if scanned != (jerr == nil) {
			t.Fatalf("%q: scanFlat err %v rest %q, encoding/json err %v", arr, err, rest, jerr)
		}
		if !scanned {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d cells, encoding/json %d", arr, len(got), len(want))
		}
		for i, p := range want {
			w := math.NaN()
			if p != nil {
				w = *p
			}
			if math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("%q cell %d: %v, encoding/json %v", arr, i, got[i], w)
			}
		}
	})
}

// TestRowAndFlatFormsDecodeIdentically: the x and x_flat bodies of one
// matrix decode to bitwise-identical cells, both equal to ParseFloat's,
// across null, signed zero, subnormals and the largest finite float64.
func TestRowAndFlatFormsDecodeIdentically(t *testing.T) {
	const genes, samples = 6, 3
	cells := []string{
		"null", "-0", "0", "5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308",
		"2.2250738585072011e-308", "1.7976931348623157e308", "-1.7976931348623157e308", "0.1",
		"-2.5E-3", "12345678901234567", "9007199254740993", "1e23", "-0.0", "1e-320",
		"7.8910496522158331", "602214085700000000000000",
	}
	var x, flat strings.Builder
	x.WriteString(`{"dataset":{"x":[`)
	for i := 0; i < genes; i++ {
		if i > 0 {
			x.WriteByte(',')
		}
		x.WriteByte('[')
		for j := 0; j < samples; j++ {
			if j > 0 {
				x.WriteByte(',')
			}
			x.WriteString(cells[j*genes+i])
		}
		x.WriteByte(']')
	}
	x.WriteString(`]}}`)
	fmt.Fprintf(&flat, `{"dataset":{"x_flat":[%s],"genes":%d,"samples":%d}}`, strings.Join(cells, ","), genes, samples)

	rowReq, err := DecodeSubmit(strings.NewReader(x.String()))
	if err != nil {
		t.Fatal(err)
	}
	flatReq, err := DecodeSubmit(strings.NewReader(flat.String()))
	if err != nil {
		t.Fatal(err)
	}
	for k, tok := range cells {
		want := math.NaN()
		if tok != "null" {
			if want, err = strconv.ParseFloat(tok, 64); err != nil {
				t.Fatal(err)
			}
		}
		i, j := k%genes, k/genes
		row, col := rowReq.Dataset.X[i][j], flatReq.Dataset.XFlat[k]
		if math.Float64bits(row) != math.Float64bits(col) || math.Float64bits(col) != math.Float64bits(want) {
			t.Errorf("%s: x %#016x, x_flat %#016x, want %#016x", tok,
				math.Float64bits(row), math.Float64bits(col), math.Float64bits(want))
		}
	}
}

// BenchmarkDecodeSubmit decodes the paper-shaped 6102×76 x_flat body in
// both key orders: shape before the array (the slice is sized once) and
// shape after it (amortised growth, the order bench/ sends).
func BenchmarkDecodeSubmit(b *testing.B) {
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 6102, Samples: 76, Classes: 2, DiffFraction: 0.05, EffectSize: 1.5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	genes, samples := len(data.X), len(data.X[0])
	var cells []byte
	for j := 0; j < samples; j++ {
		for i := 0; i < genes; i++ {
			if len(cells) > 0 {
				cells = append(cells, ',')
			}
			cells = strconv.AppendFloat(cells, data.X[i][j], 'g', -1, 64)
		}
	}
	labels, err := json.Marshal(data.Labels)
	if err != nil {
		b.Fatal(err)
	}
	shape := fmt.Sprintf(`"genes":%d,"samples":%d`, genes, samples)
	for _, order := range []struct{ name, body string }{
		{"shape-first", `{"dataset":{` + shape + `,"x_flat":[` + string(cells) + `],"labels":` + string(labels) + `},"options":{"b":128}}`},
		{"shape-after", `{"dataset":{"x_flat":[` + string(cells) + `],` + shape + `,"labels":` + string(labels) + `},"options":{"b":128}}`},
	} {
		body := []byte(order.body)
		b.Run(order.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				req, err := DecodeSubmit(bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if len(req.Dataset.XFlat) != genes*samples {
					b.Fatalf("decoded %d cells", len(req.Dataset.XFlat))
				}
			}
		})
	}
}
