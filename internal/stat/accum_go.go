package stat

// The pure-Go row-pair accumulation: the generic lane (arm64, pre-AVX2
// x86, -kernel generic) and, under avx2, the 1–3 NA-free rows a block
// leaves after its last quad.  Per iteration each (row, permutation)
// accumulator pair advances by one scalar IEEE-754 add and one multiply
// then add in ascending selected-column order.  (The AVX2 lane's Go
// statement, tsQuadGo, lives with its tests.)

// accumPairGo accumulates (sum, sum of squares) of two permutations'
// selected columns over an interleaved row pair (vab[2j] = rowA[j],
// vab[2j+1] = rowB[j]).  On return acc[0..3] hold permutation i0's
// (saA, saB, qaA, qaB) and acc[4..7] permutation i1's.
func accumPairGo(vab *float64, i0 *int32, i1 *int32, n int, acc *[8]float64) {
	var sa0, sb0, qa0, qb0, sa1, sb1, qa1, qb1 float64
	for e := 0; e < n; e++ {
		j0 := ptrI32(i0, e)
		j1 := ptrI32(i1, e)
		vA0 := gather(vab, 2*j0)
		vB0 := gather(vab, 2*j0+1)
		sa0 += vA0
		qa0 += float64(vA0 * vA0)
		sb0 += vB0
		qb0 += float64(vB0 * vB0)
		vA1 := gather(vab, 2*j1)
		vB1 := gather(vab, 2*j1+1)
		sa1 += vA1
		qa1 += float64(vA1 * vA1)
		sb1 += vB1
		qb1 += float64(vB1 * vB1)
	}
	acc[0], acc[1], acc[2], acc[3] = sa0, sb0, qa0, qb0
	acc[4], acc[5], acc[6], acc[7] = sa1, sb1, qa1, qb1
}
