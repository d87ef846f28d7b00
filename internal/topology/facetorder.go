package topology

// Sealed complexes list facets by descending size, then by the decimal
// string order of their sorted vertex lists joined with commas; vertex
// numbering, canonical bytes and solver node counts all depend on it. For
// equal-length lists that is the element-wise order of the decimal
// renderings (',' sorts below every digit), so replacing each vertex by its
// rank in decimal order turns it into an integer lexicographic order, which
// a counting sort realizes without building a string or comparing facets.

// decimalRanks sets rank[id], for every id in [0, n) with n = len(rank)
// and rank zeroed, to the position of id among the decimal strings of
// 0…n−1 in byte order: "0" < "1" < "10" < "100" < … < "11" < … < "2" < ….
// That order is the preorder of the digit trie — a node before its
// children, children by digit — which the loop walks with no strings and
// no stack: descend to the first child while it exists, else move to the
// next sibling, climbing past exhausted levels first.
func decimalRanks(rank []int32) {
	n := len(rank)
	// "0" has no children (no id has a leading zero) and keeps rank 0; the
	// roots 1…9 follow.
	last := n - 1
	x := 1
	for r := int32(1); int(r) < n; r++ {
		rank[x] = r
		if x <= last/10 { // first child 10x exists
			x *= 10
			continue
		}
		if x >= last { // no next sibling on this level
			x /= 10
		}
		x++
		for x%10 == 0 { // past the last digit: climb to the parent's sibling
			x /= 10
		}
	}
}

// sortFacets orders facets in place by descending length, then by the
// decimal string order of their vertex lists (each list sorted ascending,
// ids below numVerts). Facets of equal content keep their input order.
func sortFacets(facets [][]Vertex, numVerts int) {
	n := len(facets)
	if n < 2 {
		return
	}
	minLen, maxLen := len(facets[0]), 0
	for _, f := range facets {
		minLen, maxLen = min(minLen, len(f)), max(maxLen, len(f))
	}
	// idx is the permutation under construction; each pass is a stable
	// counting sort of idx into tmp by one key per facet. In the position
	// passes, key 0 holds facets too short to have the position (the final
	// pass separates lengths, so their placement there is immaterial) and
	// key r+1 holds rank r. All five arrays share one allocation.
	nc := max(numVerts, maxLen) + 2
	scratch := make([]int32, numVerts+3*n+nc)
	rank, scratch := scratch[:numVerts], scratch[numVerts:]
	idx, scratch := scratch[:n], scratch[n:]
	tmp, scratch := scratch[:n], scratch[n:]
	keys, count := scratch[:n], scratch[n:]
	decimalRanks(rank)
	for i := range idx {
		idx[i] = int32(i)
	}
	pass := func() {
		clear(count)
		for _, k := range keys {
			count[k+1]++
		}
		for b := 1; b < len(count); b++ {
			count[b] += count[b-1]
		}
		for _, i := range idx {
			k := keys[i]
			tmp[count[k]] = i
			count[k]++
		}
		idx, tmp = tmp, idx
	}
	for p := maxLen - 1; p >= 0; p-- {
		for i, f := range facets {
			keys[i] = 0
			if p < len(f) {
				keys[i] = rank[f[p]] + 1
			}
		}
		pass()
	}
	if minLen < maxLen {
		for i, f := range facets {
			keys[i] = int32(maxLen - len(f))
		}
		pass()
	}
	// Apply the permutation (position j takes facet idx[j]) in place by
	// following its cycles, marking finished positions with −1.
	for start := range idx {
		if idx[start] < 0 {
			continue
		}
		saved := facets[start]
		j := start
		for {
			k := int(idx[j])
			idx[j] = -1
			if k == start {
				facets[j] = saved
				break
			}
			facets[j] = facets[k]
			j = k
		}
	}
}
