package arith

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

func TestUnaryOpExact(t *testing.T) {
	tests := []struct {
		op   UnaryOp
		x    uint64
		want uint64
	}{
		{OpSquare, 0, 0},
		{OpSquare, 7, 49},
		{OpSquare, math.MaxUint32 + 1, math.MaxUint64}, // saturates
		{OpDouble, 21, 42},
		{OpDouble, math.MaxUint64, math.MaxUint64}, // saturates
		{OpSqrt, 16, 4},
		{OpSqrt, 17, 4},
		{OpLog2, 1, 0},
		{OpLog2, 0, 0}, // clamped to log2(1)
		{OpLog2, 2, Scale},
		{OpRecip, 1, Scale},
		{OpRecip, 0, Scale},
		{OpRecip, 2, Scale / 2},
	}
	for _, tt := range tests {
		if got := tt.op.Exact(tt.x); got != tt.want {
			t.Errorf("%v.Exact(%d) = %d, want %d", tt.op, tt.x, got, tt.want)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for _, op := range []UnaryOp{OpSquare, OpDouble, OpSqrt, OpLog2, OpRecip} {
		if op.String() == "" {
			t.Errorf("empty String for %d", int(op))
		}
	}
	if OpMul.String() != "mul" || OpDiv.String() != "div" {
		t.Error("binary op strings wrong")
	}
	if UnaryOp(99).String() == "" || BinaryOp(99).String() == "" {
		t.Error("unknown ops must still render")
	}
}

func TestBinaryOpExact(t *testing.T) {
	if got := OpMul.Exact(6, 7); got != 42 {
		t.Errorf("mul = %d", got)
	}
	if got := OpMul.Exact(math.MaxUint64, 2); got != math.MaxUint64 {
		t.Errorf("mul saturation = %d", got)
	}
	if got := OpDiv.Exact(42, 6); got != 7 {
		t.Errorf("div = %d", got)
	}
	if got := OpDiv.Exact(1, 0); got != math.MaxUint64 {
		t.Errorf("div by zero = %d", got)
	}
}

func TestUnaryEngineEval(t *testing.T) {
	entries, err := population.NaiveUnary(OpSquare.Func(), 8, 32, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewUnaryEngine("sq", 8, 32, entries)
	if err != nil {
		t.Fatal(err)
	}
	// Domain fully covered: no misses, result equals the installed entry.
	for x := uint64(0); x < 256; x++ {
		got, err := e.Eval(x)
		if err != nil {
			t.Fatalf("Eval(%d): %v", x, err)
		}
		if RelError(got, OpSquare.Exact(x)) > 1.0 && x > 4 {
			t.Errorf("Eval(%d) = %d: error too large for 32 entries", x, got)
		}
	}
	if e.Width() != 8 {
		t.Error("Width mismatch")
	}
}

func TestUnaryEngineMiss(t *testing.T) {
	// Populate only [0, 63] of an 8-bit domain: out-of-range must miss.
	entries, err := population.NaiveUnaryRange(OpSquare.Func(), 8, 8, 0, 63, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewUnaryEngine("sq", 8, 8, entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(10); err != nil {
		t.Errorf("in-range Eval: %v", err)
	}
	if _, err := e.Eval(200); !errors.Is(err, ErrMiss) {
		t.Errorf("out-of-range Eval error = %v, want ErrMiss", err)
	}
}

// TestEvalResultTypes pins Eval's action-data contract, shared with the
// batch path: uint64 and non-negative int data are results, anything else
// is ErrResultType, and an unpopulated key is ErrMiss.
func TestEvalResultTypes(t *testing.T) {
	tb := tcam.MustNew("typed", 0, 4)
	e, err := NewUnaryEngineOn(tb, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := []tcam.Row{
		tcam.RowFromPrefix(bitstr.MustNew(0x0, 2, 4), uint64(7)),
		tcam.RowFromPrefix(bitstr.MustNew(0x4, 2, 4), 9),
		tcam.RowFromPrefix(bitstr.MustNew(0x8, 2, 4), -1),
	}
	if _, err := tb.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	if got, err := e.Eval(0x1); err != nil || got != 7 {
		t.Errorf("uint64 data: Eval = %d, %v; want 7", got, err)
	}
	if got, err := e.Eval(0x5); err != nil || got != 9 {
		t.Errorf("int data: Eval = %d, %v; want 9", got, err)
	}
	if _, err := e.Eval(0x9); !errors.Is(err, ErrResultType) {
		t.Errorf("negative int data: Eval error = %v, want ErrResultType", err)
	}
	if _, err := e.Eval(0xd); !errors.Is(err, ErrMiss) {
		t.Errorf("unpopulated key: Eval error = %v, want ErrMiss", err)
	}
}

func TestUnaryEngineCapacity(t *testing.T) {
	entries, err := population.NaiveUnary(OpSquare.Func(), 8, 32, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUnaryEngine("sq", 8, 16, entries); err == nil {
		t.Error("32 entries into capacity 16: want error")
	}
}

func TestUnaryEngineReload(t *testing.T) {
	first, _ := population.NaiveUnary(OpSquare.Func(), 8, 4, population.Midpoint)
	e, err := NewUnaryEngine("sq", 8, 8, first)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := population.NaiveUnary(OpSquare.Func(), 8, 8, population.Midpoint)
	writes, err := e.Reload(second)
	if err != nil {
		t.Fatal(err)
	}
	if writes != 4+8 {
		t.Errorf("reload writes = %d, want 12", writes)
	}
	if e.Table().Len() != 8 {
		t.Errorf("after reload Len = %d, want 8", e.Table().Len())
	}
}

func TestBinaryEngine(t *testing.T) {
	entries, err := population.NaiveBinary(OpMul.Func(), 6, 64, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewBinaryEngine("mul", 6, 64, entries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	misses := 0
	for i := 0; i < 500; i++ {
		x, y := uint64(rng.Intn(64)), uint64(rng.Intn(64))
		if _, err := e.Eval(x, y); err != nil {
			misses++
		}
	}
	if misses != 0 {
		t.Errorf("%d misses on fully covered domain", misses)
	}
	if e.Width() != 6 {
		t.Error("Width mismatch")
	}
	// Reload path.
	if _, err := e.Reload(entries); err != nil {
		t.Fatal(err)
	}
}

func TestLogEngineMultiply(t *testing.T) {
	lt, err := population.BuildLogTables(16, 1024, 2048, 0, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewLogEngine("m", lt, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.TotalEntries() != lt.TotalEntries() {
		t.Errorf("TotalEntries = %d, want %d", e.TotalEntries(), lt.TotalEntries())
	}
	rng := rand.New(rand.NewSource(2))
	sum := 0.0
	const n = 2000
	for i := 0; i < n; i++ {
		x := uint64(512 + rng.Intn(1<<16-512))
		y := uint64(512 + rng.Intn(1<<16-512))
		got, err := e.Multiply(x, y)
		if err != nil {
			t.Fatalf("Multiply(%d,%d): %v", x, y, err)
		}
		sum += RelError(got, OpMul.Exact(x, y))
	}
	if avg := sum / n; avg > 0.05 {
		t.Errorf("avg log-multiply error %.4f > 5%%", avg)
	}
	if got, err := e.Multiply(0, 99); err != nil || got != 0 {
		t.Errorf("Multiply(0,99) = %d, %v", got, err)
	}
}

func TestLogEngineDivide(t *testing.T) {
	lt, err := population.BuildLogTables(16, 2048, 2048, 0, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewLogEngine("d", lt, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Divide(5, 0); err == nil {
		t.Error("divide by zero: want error")
	}
	if got, err := e.Divide(0, 5); err != nil || got != 0 {
		t.Errorf("Divide(0,5) = %d, %v", got, err)
	}
	got, err := e.Divide(40000, 40000)
	if err != nil || got > 2 {
		t.Errorf("Divide(x,x) = %d, %v; want ≈1", got, err)
	}
	got, err = e.Divide(3, 40000)
	if err != nil || got > 1 {
		t.Errorf("Divide(small,big) = %d, %v; want 0/1", got, err)
	}
}

func TestRelError(t *testing.T) {
	tests := []struct {
		approx, exact uint64
		want          float64
	}{
		{100, 100, 0},
		{110, 100, 0.1},
		{90, 100, 0.1},
		{5, 0, 5}, // max(1, exact) denominator
		{0, 0, 0},
	}
	for _, tt := range tests {
		if got := RelError(tt.approx, tt.exact); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("RelError(%d, %d) = %g, want %g", tt.approx, tt.exact, got, tt.want)
		}
	}
}

func TestMeasureUnary(t *testing.T) {
	entries, _ := population.NaiveUnaryRange(OpSquare.Func(), 8, 8, 0, 63, population.Midpoint)
	e, err := NewUnaryEngine("sq", 8, 0, entries)
	if err != nil {
		t.Fatal(err)
	}
	samples := []uint64{1, 10, 20, 200, 220} // last two miss
	s := MeasureUnary(e.Eval, OpSquare, samples)
	if s.Misses != 2 || s.N != 3 {
		t.Errorf("Misses = %d, N = %d; want 2, 3", s.Misses, s.N)
	}
	if s.Avg < 0 || s.Worst < s.Avg {
		t.Errorf("inconsistent summary %+v", s)
	}
	if s.AvgPercent() != s.Avg*100 {
		t.Error("AvgPercent mismatch")
	}
}

func TestMeasureBinary(t *testing.T) {
	entries, _ := population.NaiveBinary(OpMul.Func(), 4, 16, population.Midpoint)
	e, err := NewBinaryEngine("m", 4, 0, entries)
	if err != nil {
		t.Fatal(err)
	}
	xs := []uint64{1, 2, 3}
	ys := []uint64{4, 5} // shorter: only two pairs evaluated
	s := MeasureBinary(e.Eval, OpMul, xs, ys)
	if s.N != 2 {
		t.Errorf("N = %d, want 2", s.N)
	}
}

func TestPropagationSquareWorseThanDouble(t *testing.T) {
	// §V-A4: iterating x² amplifies lookup error far more than 2x.
	const width = 32
	sqEntries, err := population.NaiveUnary(OpSquare.Func(), width, 256, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	dbEntries, err := population.NaiveUnary(OpDouble.Func(), width, 256, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	sqE, err := NewUnaryEngine("sq", width, 0, sqEntries)
	if err != nil {
		t.Fatal(err)
	}
	dbE, err := NewUnaryEngine("db", width, 0, dbEntries)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{5, 8, 10, 12, 15, 20}
	domainMax := uint64(math.MaxUint32)
	_, sqMax := MeanPropagation(sqE.Eval, OpSquare, seeds, domainMax, 10)
	_, dbMax := MeanPropagation(dbE.Eval, OpDouble, seeds, domainMax, 10)
	if sqMax <= dbMax*5 {
		t.Errorf("x² propagation %.2f not ≫ 2x propagation %.2f", sqMax, dbMax)
	}
}

func TestPropagateMissClamps(t *testing.T) {
	// Engine covering only [0, 15]: once the chain escapes, the value clamps
	// to domainMax instead of failing.
	entries, _ := population.NaiveUnaryRange(OpSquare.Func(), 8, 8, 0, 15, population.Midpoint)
	e, err := NewUnaryEngine("sq", 8, 0, entries)
	if err != nil {
		t.Fatal(err)
	}
	r := Propagate(e.Eval, OpSquare, 3, 255, 5)
	if len(r.PerIter) != 5 {
		t.Fatalf("PerIter len = %d", len(r.PerIter))
	}
	if r.Final != r.PerIter[4] {
		t.Error("Final mismatch")
	}
}

func TestMeanPropagationEmptySeeds(t *testing.T) {
	per, m := MeanPropagation(func(x uint64) (uint64, error) { return x, nil }, OpDouble, nil, 100, 3)
	if len(per) != 3 || m != 0 {
		t.Error("empty seeds must yield zero curve")
	}
}

func TestGeoMeanError(t *testing.T) {
	if GeoMeanError(nil) != 0 {
		t.Error("empty: want 0")
	}
	got := GeoMeanError([]float64{0, 0, 0})
	if got != 0 {
		t.Errorf("zeros: %g", got)
	}
	got = GeoMeanError([]float64{3}) // single: (1+3)-1 = 3
	if math.Abs(got-3) > 1e-12 {
		t.Errorf("single: %g", got)
	}
}

func TestADAEngineBeatsNaiveEndToEnd(t *testing.T) {
	// Integration: build monitoring trie from skewed samples, populate an
	// engine with ADA, and verify lower measured error than naive at the
	// same capacity.
	const width, budget = 16, 32
	rng := rand.New(rand.NewSource(77))
	samples := make([]uint64, 30000)
	for i := range samples {
		v := 4000 + rng.NormFloat64()*200
		if v < 0 {
			v = 0
		}
		samples[i] = uint64(v)
	}
	tr, err := trie.NewInitial(12, width)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		tr.ResetHits()
		tr.RecordAll(samples[:2000])
		for i := 0; i < 4 && tr.Rebalance(0.20); i++ {
		}
	}
	tr.ResetHits()
	tr.RecordAll(samples)
	adaEntries, err := population.ADAUnary(tr, OpSquare.Func(), budget, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	naiveEntries, err := population.NaiveUnary(OpSquare.Func(), width, budget, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	adaE, err := NewUnaryEngine("ada", width, budget, adaEntries)
	if err != nil {
		t.Fatal(err)
	}
	naiveE, err := NewUnaryEngine("naive", width, budget, naiveEntries)
	if err != nil {
		t.Fatal(err)
	}
	adaS := MeasureUnary(adaE.Eval, OpSquare, samples)
	naiveS := MeasureUnary(naiveE.Eval, OpSquare, samples)
	if adaS.Misses != 0 {
		t.Errorf("ADA misses = %d", adaS.Misses)
	}
	if adaS.Avg >= naiveS.Avg/2 {
		t.Errorf("ADA avg error %.4f not well below naive %.4f", adaS.Avg, naiveS.Avg)
	}
}

func TestUnaryEvalBatchMatchesEval(t *testing.T) {
	entries, err := population.NaiveUnaryRange(OpSquare.Func(), 8, 8, 0, 63, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewUnaryEngine("sq", 8, 8, entries)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]uint64, 256)
	for i := range xs {
		xs[i] = uint64(i)
	}
	results, misses := e.EvalBatch(xs)
	if len(results) != len(xs) {
		t.Fatalf("batch results len = %d, want %d", len(results), len(xs))
	}
	wantMisses := 0
	for i, x := range xs {
		got, err := e.Eval(x)
		if err != nil {
			wantMisses++
			if results[i] != 0 {
				t.Errorf("EvalBatch(%d) = %d on a miss, want 0", x, results[i])
			}
			continue
		}
		if results[i] != got {
			t.Errorf("EvalBatch(%d) = %d, Eval = %d", x, results[i], got)
		}
	}
	if misses != wantMisses {
		t.Errorf("batch misses = %d, want %d", misses, wantMisses)
	}
	if misses == 0 {
		t.Error("expected out-of-range misses in half-populated domain")
	}
}

func TestBinaryEvalBatchMatchesEval(t *testing.T) {
	entries, err := population.NaiveBinary(OpMul.Func(), 6, 64, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewBinaryEngine("mul", 6, 64, entries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	xs := make([]uint64, 400)
	ys := make([]uint64, 400)
	for i := range xs {
		xs[i], ys[i] = uint64(rng.Intn(64)), uint64(rng.Intn(64))
	}
	results, misses := e.EvalBatch(xs, ys)
	if misses != 0 {
		t.Fatalf("%d batch misses on fully covered domain", misses)
	}
	for i := range xs {
		got, err := e.Eval(xs[i], ys[i])
		if err != nil {
			t.Fatalf("Eval(%d, %d): %v", xs[i], ys[i], err)
		}
		if results[i] != got {
			t.Errorf("EvalBatch(%d, %d) = %d, Eval = %d", xs[i], ys[i], results[i], got)
		}
	}
	// Mismatched lengths evaluate the common prefix.
	short, _ := e.EvalBatch(xs[:10], ys[:5])
	if len(short) != 5 {
		t.Errorf("mismatched-length batch returned %d results, want 5", len(short))
	}
}
