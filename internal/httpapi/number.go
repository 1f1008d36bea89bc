package httpapi

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"unsafe"
)

// This file converts JSON number tokens to float64 for both matrix forms
// of a submission.  One pass over the token checks the RFC 8259 grammar
// and accumulates up to 19 significant digits in a uint64 mantissa with a
// decimal exponent; the mantissa then converts through Clinger's exact
// path or the Eisel–Lemire algorithm.  Each tier either returns the
// correctly rounded float64 — the bits strconv.ParseFloat returns — or
// declines, and a declined token (more than 19 significant digits, an
// exponent outside the table, an Eisel–Lemire halfway case, a subnormal
// or overflowing result, or a grammar error) goes through isJSONNumber
// and strconv.ParseFloat, which decide what is accepted and every error.

// maxMantDigits is the number of decimal digits a uint64 always holds.
const maxMantDigits = 19

// parseNumber converts one complete JSON number token: accepted tokens,
// rejected tokens, error text and result bits are those of isJSONNumber
// followed by strconv.ParseFloat.
func parseNumber(tok []byte) (float64, error) {
	if v, n, ok := fastNumber(tok); ok && n == len(tok) {
		return v, nil
	}
	if !isJSONNumber(tok) {
		return 0, fmt.Errorf("invalid JSON number %q", tok)
	}
	// ParseFloat does not retain its argument (its errors copy it), so the
	// token view needs no string copy.
	return strconv.ParseFloat(unsafe.String(&tok[0], len(tok)), 64)
}

// fastNumber reads the JSON number at the start of b and returns the
// index of the first byte after it.  ok reports that b[:n] is a complete
// number in the RFC 8259 grammar and v is its correctly rounded value; a
// false ok means only that the fast path declined, and says nothing about
// whether the token is valid.
func fastNumber(b []byte) (v float64, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp := 0, 0 // digits held in man; the decimal exponent of its last digit
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if nd == maxMantDigits {
				return 0, i, false
			}
			man = man*10 + uint64(b[i]-'0')
			nd++
		}
	default:
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			d := b[i] - '0'
			exp--
			if nd == 0 && d == 0 {
				continue // a leading zero of 0.00…: not a significant digit
			}
			if nd == maxMantDigits {
				return 0, i, false
			}
			man = man*10 + uint64(d)
			nd++
		}
		if i == start {
			return 0, i, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start := i
		e := 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if e < 10000 { // far past the table either way; stops overflow
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, i, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	v, ok = decimalToFloat(man, exp, neg)
	return v, i, ok
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// decimalToFloat returns man·10^exp10, negated when neg, correctly
// rounded, or ok = false when neither exact tier can decide it.
func decimalToFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	// Clinger's exact path: man and 10^|exp10| are both exact float64s,
	// so one IEEE multiply or divide rounds the exact result once.
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if neg {
			f = -f
		}
		if exp10 < 0 {
			return f / float64pow10[-exp10], true
		}
		return f * float64pow10[exp10], true
	}
	return eiselLemire64(man, exp10, neg)
}

// eiselLemire64 is the Eisel–Lemire algorithm over a narrow powers-of-ten
// table.  It is ported from the Go standard library's
// strconv/eisel_lemire.go (Copyright 2020 The Go Authors; BSD-style
// licence, see https://go.dev/LICENSE), which follows
// https://nigeltao.github.io/blog/2020/eisel-lemire.html; the terse
// section comments name that post's sections.
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			return math.Float64frombits(1 << 63), true // negative zero
		}
		return 0, true
	}
	if exp10 < pow10MinExp10 || pow10MaxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	pow := &pow10Mantissas[exp10-pow10MinExp10]
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// Zero or underflow is subnormal, 0x7FF or more is Inf/NaN: both
	// decline (one unsigned compare covers retExp2 <= 0 || >= 0x7FF).
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// The exponent range of pow10Mantissas, both bounds inclusive.  It covers
// a 17-digit mantissa (a shortest float64 rendering) of any magnitude from
// about 1e-24 to 1e40; anything outside declines to strconv.ParseFloat.
const (
	pow10MinExp10 = -40
	pow10MaxExp10 = 40
)

// pow10Mantissas holds 10^q for q in [pow10MinExp10, pow10MaxExp10] as a
// 128-bit mantissa normalised to its top bit and rounded down, {low 64
// bits, high 64 bits}; the binary exponent is implied by
// 217706·q>>16.  TestPow10Table derives every row with math/big.
var pow10Mantissas = [...][2]uint64{
	{0x2323AC4B3B3DA015, 0x8B61313BBABCE2C6}, // 1e-40
	{0xABEC975E0A0D081A, 0xAE397D8AA96C1B77}, // 1e-39
	{0x96E7BD358C904A21, 0xD9C7DCED53C72255}, // 1e-38
	{0x7E50D64177DA2E54, 0x881CEA14545C7575}, // 1e-37
	{0xDDE50BD1D5D0B9E9, 0xAA242499697392D2}, // 1e-36
	{0x955E4EC64B44E864, 0xD4AD2DBFC3D07787}, // 1e-35
	{0xBD5AF13BEF0B113E, 0x84EC3C97DA624AB4}, // 1e-34
	{0xECB1AD8AEACDD58E, 0xA6274BBDD0FADD61}, // 1e-33
	{0x67DE18EDA5814AF2, 0xCFB11EAD453994BA}, // 1e-32
	{0x80EACF948770CED7, 0x81CEB32C4B43FCF4}, // 1e-31
	{0xA1258379A94D028D, 0xA2425FF75E14FC31}, // 1e-30
	{0x096EE45813A04330, 0xCAD2F7F5359A3B3E}, // 1e-29
	{0x8BCA9D6E188853FC, 0xFD87B5F28300CA0D}, // 1e-28
	{0x775EA264CF55347D, 0x9E74D1B791E07E48}, // 1e-27
	{0x95364AFE032A819D, 0xC612062576589DDA}, // 1e-26
	{0x3A83DDBD83F52204, 0xF79687AED3EEC551}, // 1e-25
	{0xC4926A9672793542, 0x9ABE14CD44753B52}, // 1e-24
	{0x75B7053C0F178293, 0xC16D9A0095928A27}, // 1e-23
	{0x5324C68B12DD6338, 0xF1C90080BAF72CB1}, // 1e-22
	{0xD3F6FC16EBCA5E03, 0x971DA05074DA7BEE}, // 1e-21
	{0x88F4BB1CA6BCF584, 0xBCE5086492111AEA}, // 1e-20
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x0000000000000000, 0x8000000000000000}, // 1e0
	{0x0000000000000000, 0xA000000000000000}, // 1e1
	{0x0000000000000000, 0xC800000000000000}, // 1e2
	{0x0000000000000000, 0xFA00000000000000}, // 1e3
	{0x0000000000000000, 0x9C40000000000000}, // 1e4
	{0x0000000000000000, 0xC350000000000000}, // 1e5
	{0x0000000000000000, 0xF424000000000000}, // 1e6
	{0x0000000000000000, 0x9896800000000000}, // 1e7
	{0x0000000000000000, 0xBEBC200000000000}, // 1e8
	{0x0000000000000000, 0xEE6B280000000000}, // 1e9
	{0x0000000000000000, 0x9502F90000000000}, // 1e10
	{0x0000000000000000, 0xBA43B74000000000}, // 1e11
	{0x0000000000000000, 0xE8D4A51000000000}, // 1e12
	{0x0000000000000000, 0x9184E72A00000000}, // 1e13
	{0x0000000000000000, 0xB5E620F480000000}, // 1e14
	{0x0000000000000000, 0xE35FA931A0000000}, // 1e15
	{0x0000000000000000, 0x8E1BC9BF04000000}, // 1e16
	{0x0000000000000000, 0xB1A2BC2EC5000000}, // 1e17
	{0x0000000000000000, 0xDE0B6B3A76400000}, // 1e18
	{0x0000000000000000, 0x8AC7230489E80000}, // 1e19
	{0x0000000000000000, 0xAD78EBC5AC620000}, // 1e20
	{0x0000000000000000, 0xD8D726B7177A8000}, // 1e21
	{0x0000000000000000, 0x878678326EAC9000}, // 1e22
	{0x0000000000000000, 0xA968163F0A57B400}, // 1e23
	{0x0000000000000000, 0xD3C21BCECCEDA100}, // 1e24
	{0x0000000000000000, 0x84595161401484A0}, // 1e25
	{0x0000000000000000, 0xA56FA5B99019A5C8}, // 1e26
	{0x0000000000000000, 0xCECB8F27F4200F3A}, // 1e27
	{0x4000000000000000, 0x813F3978F8940984}, // 1e28
	{0x5000000000000000, 0xA18F07D736B90BE5}, // 1e29
	{0xA400000000000000, 0xC9F2C9CD04674EDE}, // 1e30
	{0x4D00000000000000, 0xFC6F7C4045812296}, // 1e31
	{0xF020000000000000, 0x9DC5ADA82B70B59D}, // 1e32
	{0x6C28000000000000, 0xC5371912364CE305}, // 1e33
	{0xC732000000000000, 0xF684DF56C3E01BC6}, // 1e34
	{0x3C7F400000000000, 0x9A130B963A6C115C}, // 1e35
	{0x4B9F100000000000, 0xC097CE7BC90715B3}, // 1e36
	{0x1E86D40000000000, 0xF0BDC21ABB48DB20}, // 1e37
	{0x1314448000000000, 0x96769950B50D88F4}, // 1e38
	{0x17D955A000000000, 0xBC143FA4E250EB31}, // 1e39
	{0x5DCFAB0800000000, 0xEB194F8E1AE525FD}, // 1e40
}
