package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"diffusion/internal/attr"
)

// This file reproduces the paper's matching-cost experiment (Figures 10
// and 11): the cost of the two-way match between the Figure 10 interest
// (8 attributes) and data (6 attributes) sets, as the data set grows from
// 6 to 30 attributes in four variants:
//
//   - match/IS:    growth by actuals (repetitions of `extra IS "lot"`);
//     every added attribute is examined but needs no search.
//   - match/EQ:    growth by formals (repetitions of `class EQ interest`);
//     every added attribute must be matched against set A.
//   - no-match/IS and no-match/EQ: the same growth, but set B's
//     confidence is changed from 90 to 10 so the one-way match from A
//     fails early; added attributes in B are barely touched.
//
// Attribute order is randomized per trial, as in the paper.

// Fig10Interest returns the paper's Figure 10 set A (the interest).
func Fig10Interest() attr.Vec {
	return attr.Vec{
		attr.Int32Attr(attr.KeyClass, attr.IS, attr.ClassInterest),
		attr.StringAttr(attr.KeyTask, attr.EQ, "detectAnimal"),
		attr.Float64Attr(attr.KeyConfidence, attr.GT, 50),
		attr.Float64Attr(attr.KeyLatitude, attr.GE, 10.0),
		attr.Float64Attr(attr.KeyLatitude, attr.LE, 100.0),
		attr.Float64Attr(attr.KeyLongitude, attr.GE, 5.0),
		attr.Float64Attr(attr.KeyLongitude, attr.LE, 95.0),
		attr.StringAttr(attr.KeyTarget, attr.IS, "4-leg"),
	}
}

// Fig10Data returns the paper's Figure 10 set B (the data). With
// matching=false the confidence actual is 10 instead of 90, failing the
// "confidence GT 50" formal.
func Fig10Data(matching bool) attr.Vec {
	conf := 90.0
	if !matching {
		conf = 10.0
	}
	return attr.Vec{
		attr.Int32Attr(attr.KeyClass, attr.IS, attr.ClassData),
		attr.StringAttr(attr.KeyTask, attr.IS, "detectAnimal"),
		attr.Float64Attr(attr.KeyConfidence, attr.IS, conf),
		attr.Float64Attr(attr.KeyLatitude, attr.IS, 20.0),
		attr.Float64Attr(attr.KeyLongitude, attr.IS, 80.0),
		attr.StringAttr(attr.KeyTarget, attr.IS, "4-leg"),
	}
}

// GrowDataSet extends the Figure 10 data set to n attributes using the
// given growth mode ("IS" appends `extra IS "lot"` actuals; "EQ" appends
// `class EQ interest` formals).
func GrowDataSet(base attr.Vec, n int, mode string) attr.Vec {
	out := base.Clone()
	for len(out) < n {
		switch mode {
		case "IS":
			out = append(out, attr.StringAttr(attr.KeyExtra, attr.IS, "lot"))
		case "EQ":
			out = append(out, attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest))
		default:
			panic("experiments: growth mode must be IS or EQ")
		}
	}
	return out
}

// Fig11Point is one measurement of the matching-cost series.
type Fig11Point struct {
	Series     string // "match/IS", "match/EQ", "no-match/IS", "no-match/EQ"
	AttrsInB   int
	NsPerMatch float64
}

// Fig11Config controls the sweep.
type Fig11Config struct {
	// Sizes are the set-B attribute counts (paper: 6 to 30).
	Sizes []int
	// Iterations per (shuffle, size) measurement (paper: 5000 matching /
	// 10000 not).
	Iterations int
	// Shuffles is the number of order-randomized repetitions averaged per
	// point (the paper repeats each experiment 1000 times with the order
	// of attributes randomized each time; the match cost depends strongly
	// on where the deciding attribute lands).
	Shuffles int
	// Seed randomizes attribute order.
	Seed int64
}

// DefaultFig11 returns the paper's sweep, with fewer repetitions than the
// paper's 1000 (enough for stable means on a modern CPU).
func DefaultFig11() Fig11Config {
	return Fig11Config{
		Sizes:      []int{6, 10, 14, 18, 22, 26, 30},
		Iterations: 200,
		Shuffles:   100,
		Seed:       1,
	}
}

// RunFig11 measures the four series. Absolute numbers are host-CPU
// specific (the paper used a 66 MHz 486); the reproduced result is the
// shape: linear growth, actual-growth cheaper than formal-growth, and
// non-matching sets cheap and insensitive to set-B size.
func RunFig11(cfg Fig11Config) []Fig11Point {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Fig11Point
	for _, series := range []struct {
		name     string
		matching bool
		mode     string
	}{
		{"match/IS", true, "IS"},
		{"match/EQ", true, "EQ"},
		{"no-match/IS", false, "IS"},
		{"no-match/EQ", false, "EQ"},
	} {
		for _, size := range cfg.Sizes {
			shuffles := cfg.Shuffles
			if shuffles <= 0 {
				shuffles = 1
			}
			iter := cfg.Iterations
			if !series.matching {
				iter *= 2 // paper: 10000 iterations for the cheap no-match case
			}
			var total time.Duration
			for rep := 0; rep < shuffles; rep++ {
				a := Fig10Interest()
				b := GrowDataSet(Fig10Data(series.matching), size, series.mode)
				// Randomize attribute order, as the paper does per
				// experiment: cost depends strongly on where the deciding
				// attributes land, so points are means over many orders.
				rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				// Time the loop three times and keep the fastest: pre-emption
				// and cold caches only ever add time, so the minimum is the
				// reading that does not depend on what else the host runs.
				best := time.Duration(math.MaxInt64)
				for try := 0; try < 3; try++ {
					start := time.Now()
					for i := 0; i < iter; i++ {
						got := attr.Match(a, b)
						if got != series.matching {
							panic(fmt.Sprintf("experiments: %s size %d: match=%v", series.name, size, got))
						}
					}
					if d := time.Since(start); d < best {
						best = d
					}
				}
				total += best
			}
			ns := float64(total.Nanoseconds()) / float64(iter*shuffles)
			out = append(out, Fig11Point{Series: series.name, AttrsInB: size, NsPerMatch: ns})
		}
	}
	return out
}

// PrintFig11 renders the series.
func PrintFig11(w io.Writer, points []Fig11Point) {
	fmt.Fprintln(w, "Figure 11: matching cost as the number of attributes in set B grows")
	fmt.Fprintln(w, "series        |B|   ns/match")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s  %3d   %8.0f\n", p.Series, p.AttrsInB, p.NsPerMatch)
	}
}
