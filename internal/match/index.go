// Package match implements an inverted attribute index over attr.Vec:
// the broker-scale matching engine section 6.3 of the paper anticipates
// ("attributes could be statically or dynamically optimized").
//
// The index stores attribute vectors and answers "which stored vectors
// match this message?" in sub-linear time. Each stored vector elects one
// *pivot* formal — its most selective indexable formal — and is filed
// into a per-key, per-operator posting structure keyed by that pivot:
//
//   - EQ formals land in hash buckets keyed by the canonicalized value
//     (numerics widened to float64 with -0 folded into +0; strings and
//     blobs by content), so an EQ pivot costs one map probe.
//   - LT/LE/GT/GE formals with numeric or string thresholds land in
//     per-operator threshold lists kept sorted, so a probe value selects
//     a contiguous prefix or suffix by binary search.
//   - EQ_ANY and NE formals land in per-key presence lists: any actual
//     with the key makes every such poster a candidate (NE is
//     deliberately conservative — inequality and cross-type mismatches
//     both satisfy it, so presence is the cheapest sound pre-filter).
//
// Vectors with no indexable formal (no formals at all, blob range
// thresholds, NaN-valued comparisons — NaN compares equal to everything
// under the matcher's three-way comparison, so it cannot be bucketed or
// ordered) go on an always-scanned fallback list; Stats.FallbackScanned
// counts how often that list is paid for.
//
// A stored vector is copied into two index-owned arenas, its formals
// (pivot first) and its actuals each as one contiguous run, so a slot
// holds offsets instead of pointers and verifying a candidate reads the
// slot array and one arena run.
//
// Lookup gathers candidates from the postings selected by the message's
// actuals and verifies each with the oracle itself: attr.OneWayMatch of
// the stored formals against the message and, in TwoWay mode when the
// message carries a formal, of the message against the stored actuals.
// A pivot its posting already proves (an EQ bucket, EQ_ANY presence) is
// not checked again. Each slot sits in one key's postings, so only a
// message that repeats a key can gather a slot twice; only then are the
// candidates de-duplicated with an epoch-stamped mark array. The
// pre-filter may over-include, never under-include, so results are
// exact. Steady-state lookups are allocation-free: candidates live in a
// reusable scratch buffer and results are appended to a caller-supplied
// slice.
//
// The index is not safe for concurrent use; it belongs to a single-
// threaded diffusion node like every other core structure.
package match

import (
	"math"

	"diffusion/internal/attr"
)

// Mode selects the match semantics Lookup verifies.
type Mode uint8

const (
	// TwoWay verifies attr.Match(stored, msg): both directions.
	TwoWay Mode = iota
	// OneWay verifies attr.OneWayMatch(stored, msg): every formal of the
	// stored vector satisfied by an actual of the message.
	OneWay
)

// Handle identifies a stored vector inside an Index. Handles are dense
// small integers and are recycled after Remove.
type Handle int32

// Stats counts index activity since creation (Reset does not clear them).
type Stats struct {
	// Lookups is the number of Lookup calls.
	Lookups uint64
	// CandidatesScanned is the total number of candidates verified
	// against the exact matcher across all lookups (the index's work).
	CandidatesScanned uint64
	// FallbackScanned counts candidates that came from the always-scan
	// fallback list (vectors with no indexable pivot).
	FallbackScanned uint64
	// Hits is the number of candidates that verified as true matches.
	Hits uint64
}

// pivotKind says which posting structure holds a slot's pivot.
type pivotKind uint8

const (
	pivotAlways pivotKind = iota
	pivotEQNum
	pivotEQStr
	pivotEQBlob
	pivotEQAny
	pivotNE
	pivotNumRange
	pivotStrRange
)

// proven reports whether being gathered through this kind's posting
// already shows the pivot formal holds: an EQ bucket is keyed by an equal
// value (a NaN actual, which reaches EQ pivots through numAll, compares
// equal to every number) and EQ_ANY needs only the key. Range and NE
// postings over-include, so those pivots are verified with the rest.
func (k pivotKind) proven() bool { return k >= pivotEQNum && k <= pivotEQAny }

// pivot locates a slot's posting. It is derived from the slot's first
// formal by classify, not stored.
type pivot struct {
	kind pivotKind
	key  attr.Key
	op   attr.Op // range pivots: which threshold list
	num  uint64  // canonical float64 bits (EQNum bucket, NumRange threshold)
	str  string  // EQStr/EQBlob bucket key, StrRange threshold
}

// slot is one stored vector: its tag and its two runs in the index's
// arenas. It holds no pointer, so a broker's slot array costs the
// collector nothing to scan.
type slot struct {
	tag        uint64
	fOff, fLen uint32 // formal run in Index.formals, the pivot formal first
	aOff, aLen uint32 // actual run in Index.actuals
	pos        int32  // position on the always list (pivotAlways only)
	kind       pivotKind
	live       bool
}

// Threshold-list indices by comparison operator.
const (
	rLT = iota
	rLE
	rGT
	rGE
)

func rangeIdx(op attr.Op) int {
	switch op {
	case attr.LT:
		return rLT
	case attr.LE:
		return rLE
	case attr.GT:
		return rGT
	default:
		return rGE
	}
}

type numPost struct {
	t float64
	h Handle
}

type strPost struct {
	t string
	h Handle
}

// keyIndex holds every posting structure for one attribute key.
type keyIndex struct {
	eqNum  map[uint64][]Handle
	eqStr  map[string][]Handle
	eqBlob map[string][]Handle
	eqAny  []Handle
	ne     []Handle
	// numAll holds every handle whose pivot is a numeric-valued EQ or
	// range formal on this key: the candidate set for a NaN actual,
	// which compares equal to every number under the matcher's
	// three-way comparison and so can satisfy any of them.
	numAll []Handle

	numRange [4][]numPost // sorted ascending by threshold
	strRange [4][]strPost

	// stamp is the last lookup epoch that probed this key: a second
	// actual with the key finds it current and asks for dedup.
	stamp uint32
}

// Index is an inverted attribute index. The zero value is an empty
// two-way index.
type Index struct {
	mode   Mode
	slots  []slot
	free   []Handle
	keys   map[attr.Key]*keyIndex
	always []Handle
	live   int

	// The arenas every slot's runs live in. dead counts the entries of
	// removed slots; once they are more than half, compact rewrites both.
	formals, actuals attr.Vec
	dead             int

	// Lookup scratch: candidate buffer plus an epoch-stamped mark per
	// slot for duplicate suppression. No user code runs during Lookup,
	// so one scratch set per index suffices.
	cand []Handle
	mark []uint32
	gen  uint32

	stat Stats
}

// New returns an empty index verifying the given mode's semantics.
func New(mode Mode) *Index { return &Index{mode: mode} }

// Add stores a copy of v's attributes under tag and returns its handle.
// v itself is not retained; its string and blob values, immutable like
// every attr.Value, are shared. Tags need not be unique, but every
// matching slot's tag is reported by Lookup, so duplicate tags yield
// duplicate results.
func (ix *Index) Add(v attr.Vec, tag uint64) Handle {
	var h Handle
	if n := len(ix.free); n > 0 {
		h = ix.free[n-1]
		ix.free = ix.free[:n-1]
	} else {
		ix.slots = append(ix.slots, slot{})
		ix.mark = append(ix.mark, 0)
		h = Handle(len(ix.slots) - 1)
	}
	p, at := choosePivot(v)
	fOff, aOff := len(ix.formals), len(ix.actuals)
	if at >= 0 {
		ix.formals = append(ix.formals, v[at])
	}
	for i, a := range v {
		if i == at {
			continue
		}
		if a.Op.IsFormal() {
			ix.formals = append(ix.formals, a)
		} else {
			ix.actuals = append(ix.actuals, a)
		}
	}
	ix.slots[h] = slot{
		tag:  tag,
		fOff: uint32(fOff), fLen: uint32(len(ix.formals) - fOff),
		aOff: uint32(aOff), aLen: uint32(len(ix.actuals) - aOff),
		kind: p.kind,
		live: true,
	}
	ix.install(h, p)
	ix.live++
	return h
}

// Remove deletes the slot h. Removing an already-removed handle is a
// no-op.
func (ix *Index) Remove(h Handle) {
	if int(h) >= len(ix.slots) || !ix.slots[h].live {
		return
	}
	s := &ix.slots[h]
	ix.uninstall(h, s)
	ix.dead += int(s.fLen + s.aLen)
	*s = slot{}
	ix.free = append(ix.free, h)
	ix.live--
	if 2*ix.dead > len(ix.formals)+len(ix.actuals) {
		ix.compact()
	}
}

// compact rewrites both arenas from the live slots' runs.
func (ix *Index) compact() {
	var nf, na uint32
	for _, s := range ix.slots {
		nf, na = nf+s.fLen, na+s.aLen
	}
	formals, actuals := make(attr.Vec, 0, nf), make(attr.Vec, 0, na)
	for i := range ix.slots {
		s := &ix.slots[i]
		fOff, aOff := uint32(len(formals)), uint32(len(actuals))
		formals = append(formals, ix.formals[s.fOff:s.fOff+s.fLen]...)
		actuals = append(actuals, ix.actuals[s.aOff:s.aOff+s.aLen]...)
		s.fOff, s.aOff = fOff, aOff
	}
	ix.formals, ix.actuals, ix.dead = formals, actuals, 0
}

// Reset empties the index, retaining accumulated Stats and allocated
// scratch capacity.
func (ix *Index) Reset() {
	ix.slots = ix.slots[:0]
	ix.free = ix.free[:0]
	ix.keys = nil
	ix.always = ix.always[:0]
	ix.formals, ix.actuals, ix.dead = nil, nil, 0
	ix.mark = ix.mark[:0]
	ix.gen = 0
	ix.live = 0
}

// Len returns the number of live stored vectors.
func (ix *Index) Len() int { return ix.live }

// Keys returns the number of distinct attribute keys with postings.
func (ix *Index) Keys() int { return len(ix.keys) }

// FallbackLen returns the number of stored vectors on the always-scan
// fallback list.
func (ix *Index) FallbackLen() int { return len(ix.always) }

// Stats returns a copy of the accumulated counters.
func (ix *Index) Stats() Stats { return ix.stat }

// Lookup appends the tag of every stored vector matching msg (under the
// index mode) to dst and returns the extended slice. Results carry no
// particular order; callers needing the canonical order sort the tags.
// Steady-state calls allocate nothing beyond dst growth.
func (ix *Index) Lookup(msg attr.Vec, dst []uint64) []uint64 {
	ix.stat.Lookups++
	ix.gen++
	if ix.gen == 0 { // epoch wrap: invalidate all stamps once per 2^32 lookups
		clear(ix.mark)
		for _, ki := range ix.keys {
			ki.stamp = 0
		}
		ix.gen = 1
	}
	cand := ix.cand[:0]
	formals := false
	unique := -1 // once a key repeats, cand[:unique] is deduplicated
	for _, a := range msg {
		if !a.Op.IsActual() {
			formals = true
			continue
		}
		ki := ix.keys[a.Key]
		if ki == nil {
			continue
		}
		if ki.stamp == ix.gen && unique < 0 {
			unique = 0
		}
		ki.stamp = ix.gen
		cand = gather(cand, ki, a.Val)
		// Deduplicating as candidates arrive, not at the end, keeps cand
		// within twice the slot count however often a key repeats.
		if unique >= 0 {
			cand = ix.dedup(cand, unique)
			unique = len(cand)
		}
	}
	cand = append(cand, ix.always...) // disjoint from every posting
	ix.stat.FallbackScanned += uint64(len(ix.always))
	ix.stat.CandidatesScanned += uint64(len(cand))
	reverse := formals && ix.mode == TwoWay
	for _, h := range cand {
		s := &ix.slots[h]
		from := s.fOff
		if s.kind.proven() {
			from++
		}
		ok := attr.OneWayMatch(ix.formals[from:s.fOff+s.fLen], msg)
		if ok && reverse {
			ok = attr.OneWayMatch(msg, ix.actuals[s.aOff:s.aOff+s.aLen])
		}
		if ok {
			ix.stat.Hits++
			dst = append(dst, s.tag)
		}
	}
	ix.cand = cand[:0]
	return dst
}

// dedup drops from cand[from:] every handle marked this lookup, keeping
// first sightings in order, and marks the ones it keeps.
func (ix *Index) dedup(cand []Handle, from int) []Handle {
	out := cand[:from]
	for _, h := range cand[from:] {
		if ix.mark[h] != ix.gen {
			ix.mark[h] = ix.gen
			out = append(out, h)
		}
	}
	return out
}

// gather collects the candidates an actual value v for one key selects.
// A slot sits in at most one of the postings one call reads.
func gather(cand []Handle, ki *keyIndex, v attr.Value) []Handle {
	// Presence-based postings: EQ_ANY matches any actual with the key;
	// NE is satisfied by differing values and by cross-type actuals, so
	// presence is its only sound cheap pre-filter.
	cand = append(cand, ki.eqAny...)
	cand = append(cand, ki.ne...)
	switch {
	case v.Numeric():
		f := v.AsFloat()
		if math.IsNaN(f) {
			// NaN compares equal to every number (compareFloat yields 0),
			// so every numeric EQ/LE/GE formal on this key is satisfied;
			// include the whole numeric side and let verification decide.
			return append(cand, ki.numAll...)
		}
		if f == 0 {
			f = 0 // fold -0 into +0: they compare equal
		}
		cand = append(cand, ki.eqNum[math.Float64bits(f)]...)
		// A formal "k OP t" is satisfied when f OP t holds; select the
		// threshold run on the correct side of f for each operator.
		posts := ki.numRange[rLT] // f < t: thresholds above f
		for i := searchNum(posts, f, false); i < len(posts); i++ {
			cand = append(cand, posts[i].h)
		}
		posts = ki.numRange[rLE] // f <= t: thresholds at or above f
		for i := searchNum(posts, f, true); i < len(posts); i++ {
			cand = append(cand, posts[i].h)
		}
		posts = ki.numRange[rGT] // f > t: thresholds below f
		for i, end := 0, searchNum(posts, f, true); i < end; i++ {
			cand = append(cand, posts[i].h)
		}
		posts = ki.numRange[rGE] // f >= t: thresholds at or below f
		for i, end := 0, searchNum(posts, f, false); i < end; i++ {
			cand = append(cand, posts[i].h)
		}
	case v.Type == attr.TypeString:
		s := v.Str()
		cand = append(cand, ki.eqStr[s]...)
		posts := ki.strRange[rLT]
		for i := searchStr(posts, s, false); i < len(posts); i++ {
			cand = append(cand, posts[i].h)
		}
		posts = ki.strRange[rLE]
		for i := searchStr(posts, s, true); i < len(posts); i++ {
			cand = append(cand, posts[i].h)
		}
		posts = ki.strRange[rGT]
		for i, end := 0, searchStr(posts, s, true); i < end; i++ {
			cand = append(cand, posts[i].h)
		}
		posts = ki.strRange[rGE]
		for i, end := 0, searchStr(posts, s, false); i < end; i++ {
			cand = append(cand, posts[i].h)
		}
	default: // blob: EQ buckets only; blob ranges live on the always list
		cand = append(cand, ki.eqBlob[string(v.Blob())]...)
	}
	return cand
}

// searchNum returns the first index whose threshold is >= v (orEq) or
// > v (!orEq). Thresholds are never NaN (NaN pivots are rejected).
func searchNum(p []numPost, v float64, orEq bool) int {
	lo, hi := 0, len(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p[mid].t < v || (!orEq && p[mid].t == v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func searchStr(p []strPost, v string, orEq bool) int {
	lo, hi := 0, len(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p[mid].t < v || (!orEq && p[mid].t == v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// choosePivot elects the most selective indexable formal of v:
// EQ > numeric range > string range > EQ_ANY > NE, first in vector order
// among equals, and its position in v. Vectors without one fall back to
// the always list, at -1.
func choosePivot(v attr.Vec) (best pivot, at int) {
	best, at = pivot{kind: pivotAlways}, -1
	bestRank := 0
	for i, a := range v {
		if p, rank := classify(a); rank > bestRank {
			best, at, bestRank = p, i, rank
		}
	}
	return best, at
}

// classify maps one formal to its posting location and selectivity rank;
// rank 0 means not indexable, as is every actual.
func classify(a attr.Attribute) (pivot, int) {
	switch a.Op {
	case attr.EQ:
		switch {
		case a.Val.Numeric():
			f := a.Val.AsFloat()
			if math.IsNaN(f) {
				// "k EQ NaN" is satisfied by every numeric actual
				// (three-way comparison yields 0): no bucket holds it.
				return pivot{}, 0
			}
			if f == 0 {
				f = 0
			}
			return pivot{kind: pivotEQNum, key: a.Key, num: math.Float64bits(f)}, 5
		case a.Val.Type == attr.TypeString:
			return pivot{kind: pivotEQStr, key: a.Key, str: a.Val.Str()}, 5
		default:
			return pivot{kind: pivotEQBlob, key: a.Key, str: string(a.Val.Blob())}, 5
		}
	case attr.LT, attr.LE, attr.GT, attr.GE:
		switch {
		case a.Val.Numeric():
			f := a.Val.AsFloat()
			if math.IsNaN(f) {
				// "k LE NaN"/"k GE NaN" hold for every numeric actual;
				// NaN has no place in an ordered threshold list.
				return pivot{}, 0
			}
			if f == 0 {
				f = 0
			}
			return pivot{kind: pivotNumRange, key: a.Key, op: a.Op, num: math.Float64bits(f)}, 4
		case a.Val.Type == attr.TypeString:
			return pivot{kind: pivotStrRange, key: a.Key, op: a.Op, str: a.Val.Str()}, 3
		default:
			return pivot{}, 0 // blob ranges are rare; always-scan
		}
	case attr.EQAny:
		return pivot{kind: pivotEQAny, key: a.Key}, 2
	case attr.NE:
		return pivot{kind: pivotNE, key: a.Key}, 1
	}
	return pivot{}, 0
}

func (ix *Index) keyIndexFor(k attr.Key) *keyIndex {
	ki := ix.keys[k]
	if ki == nil {
		if ix.keys == nil {
			ix.keys = map[attr.Key]*keyIndex{}
		}
		ki = &keyIndex{}
		ix.keys[k] = ki
	}
	return ki
}

// install files h into the posting p names.
func (ix *Index) install(h Handle, p pivot) {
	if p.kind == pivotAlways {
		ix.slots[h].pos = int32(len(ix.always))
		ix.always = append(ix.always, h)
		return
	}
	ki := ix.keyIndexFor(p.key)
	switch p.kind {
	case pivotEQNum:
		if ki.eqNum == nil {
			ki.eqNum = map[uint64][]Handle{}
		}
		ki.eqNum[p.num] = append(ki.eqNum[p.num], h)
		ki.numAll = append(ki.numAll, h)
	case pivotEQStr:
		if ki.eqStr == nil {
			ki.eqStr = map[string][]Handle{}
		}
		ki.eqStr[p.str] = append(ki.eqStr[p.str], h)
	case pivotEQBlob:
		if ki.eqBlob == nil {
			ki.eqBlob = map[string][]Handle{}
		}
		ki.eqBlob[p.str] = append(ki.eqBlob[p.str], h)
	case pivotEQAny:
		ki.eqAny = append(ki.eqAny, h)
	case pivotNE:
		ki.ne = append(ki.ne, h)
	case pivotNumRange:
		i := rangeIdx(p.op)
		ki.numRange[i] = insertNum(ki.numRange[i], math.Float64frombits(p.num), h)
		ki.numAll = append(ki.numAll, h)
	case pivotStrRange:
		i := rangeIdx(p.op)
		ki.strRange[i] = insertStr(ki.strRange[i], p.str, h)
	}
}

// uninstall removes h from the posting its pivot names, recomputed from
// the slot's first formal.
func (ix *Index) uninstall(h Handle, s *slot) {
	if s.kind == pivotAlways {
		last := len(ix.always) - 1
		moved := ix.always[last]
		ix.always[s.pos] = moved
		ix.slots[moved].pos = s.pos
		ix.always = ix.always[:last]
		return
	}
	p, _ := classify(ix.formals[s.fOff])
	ki := ix.keys[p.key]
	switch p.kind {
	case pivotEQNum:
		ki.eqNum[p.num] = dropHandle(ki.eqNum[p.num], h)
		if len(ki.eqNum[p.num]) == 0 {
			delete(ki.eqNum, p.num)
		}
		ki.numAll = dropHandle(ki.numAll, h)
	case pivotEQStr:
		ki.eqStr[p.str] = dropHandle(ki.eqStr[p.str], h)
		if len(ki.eqStr[p.str]) == 0 {
			delete(ki.eqStr, p.str)
		}
	case pivotEQBlob:
		ki.eqBlob[p.str] = dropHandle(ki.eqBlob[p.str], h)
		if len(ki.eqBlob[p.str]) == 0 {
			delete(ki.eqBlob, p.str)
		}
	case pivotEQAny:
		ki.eqAny = dropHandle(ki.eqAny, h)
	case pivotNE:
		ki.ne = dropHandle(ki.ne, h)
	case pivotNumRange:
		i := rangeIdx(p.op)
		ki.numRange[i] = removeNum(ki.numRange[i], math.Float64frombits(p.num), h)
		ki.numAll = dropHandle(ki.numAll, h)
	case pivotStrRange:
		i := rangeIdx(p.op)
		ki.strRange[i] = removeStr(ki.strRange[i], p.str, h)
	}
}

// dropHandle removes h from an unordered posting list (swap-delete).
func dropHandle(s []Handle, h Handle) []Handle {
	for i, x := range s {
		if x == h {
			last := len(s) - 1
			s[i] = s[last]
			return s[:last]
		}
	}
	return s
}

// insertNum inserts (t, h) keeping the list sorted by threshold.
func insertNum(p []numPost, t float64, h Handle) []numPost {
	i := searchNum(p, t, true)
	p = append(p, numPost{})
	copy(p[i+1:], p[i:])
	p[i] = numPost{t: t, h: h}
	return p
}

// removeNum deletes the post for h, located by its threshold.
func removeNum(p []numPost, t float64, h Handle) []numPost {
	for i := searchNum(p, t, true); i < len(p) && p[i].t == t; i++ {
		if p[i].h == h {
			return append(p[:i], p[i+1:]...)
		}
	}
	return p
}

func insertStr(p []strPost, t string, h Handle) []strPost {
	i := searchStr(p, t, true)
	p = append(p, strPost{})
	copy(p[i+1:], p[i:])
	p[i] = strPost{t: t, h: h}
	return p
}

func removeStr(p []strPost, t string, h Handle) []strPost {
	for i := searchStr(p, t, true); i < len(p) && p[i].t == t; i++ {
		if p[i].h == h {
			return append(p[:i], p[i+1:]...)
		}
	}
	return p
}
