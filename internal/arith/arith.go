// Package arith implements the approximate arithmetic engine: TCAM-backed
// evaluation of the operations PISA switches cannot execute natively
// (multiplication, division, squares, square roots, logarithms), plus the
// error metrics used throughout the paper's evaluation (§V-A3/4).
//
// An engine wraps a tcam.Table populated by one of the population schemes;
// evaluation is a hardware-faithful ternary lookup, not a software shortcut,
// so entry budgets, LPM resolution, and misses behave exactly as they would
// on the switch.
package arith

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/tcam"
)

var (
	// ErrMiss reports a lookup that matched no entry (operand outside the
	// populated working range).
	ErrMiss = errors.New("arith: calculation TCAM miss")
	// ErrResultType reports an entry whose action data is not a result
	// value; it indicates table corruption or misuse.
	ErrResultType = errors.New("arith: entry data is not a result value")
)

// UnaryOp enumerates the single-operand operations with exact reference
// semantics. Fixed-point operations use Scale.
type UnaryOp int

const (
	// OpSquare is f(x) = x², saturating at the uint64 maximum.
	OpSquare UnaryOp = iota + 1
	// OpDouble is f(x) = 2x, saturating.
	OpDouble
	// OpSqrt is f(x) = floor(sqrt(x)).
	OpSqrt
	// OpLog2 is f(x) = round(log2(max(x,1)) * Scale).
	OpLog2
	// OpRecip is f(x) = round(Scale / x), with f(0) = Scale.
	OpRecip
)

// Scale is the fixed-point multiplier for OpLog2 and OpRecip results.
const Scale = 1 << 16

// Exact evaluates the reference (infinitely precise, then rounded) result.
func (op UnaryOp) Exact(x uint64) uint64 {
	switch op {
	case OpSquare:
		hi, lo := mul64(x, x)
		if hi != 0 {
			return math.MaxUint64
		}
		return lo
	case OpDouble:
		if x > math.MaxUint64/2 {
			return math.MaxUint64
		}
		return 2 * x
	case OpSqrt:
		return uint64(math.Sqrt(float64(x)))
	case OpLog2:
		if x < 1 {
			x = 1
		}
		return uint64(math.Round(math.Log2(float64(x)) * Scale))
	case OpRecip:
		if x == 0 {
			return Scale
		}
		return uint64(math.Round(Scale / float64(x)))
	default:
		return 0
	}
}

func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

// Func returns the exact evaluator as a population.UnaryFunc.
func (op UnaryOp) Func() population.UnaryFunc {
	return func(x uint64) uint64 { return op.Exact(x) }
}

// String implements fmt.Stringer.
func (op UnaryOp) String() string {
	switch op {
	case OpSquare:
		return "x^2"
	case OpDouble:
		return "2x"
	case OpSqrt:
		return "sqrt"
	case OpLog2:
		return "log2"
	case OpRecip:
		return "recip"
	default:
		return fmt.Sprintf("UnaryOp(%d)", int(op))
	}
}

// BinaryOp enumerates the two-operand operations.
type BinaryOp int

const (
	// OpMul is f(x, y) = x*y, saturating.
	OpMul BinaryOp = iota + 1
	// OpDiv is f(x, y) = x/y, with f(x, 0) = max.
	OpDiv
)

// Exact evaluates the reference result.
func (op BinaryOp) Exact(x, y uint64) uint64 {
	switch op {
	case OpMul:
		hi, lo := mul64(x, y)
		if hi != 0 {
			return math.MaxUint64
		}
		return lo
	case OpDiv:
		if y == 0 {
			return math.MaxUint64
		}
		return x / y
	default:
		return 0
	}
}

// Func returns the exact evaluator as a population.BinaryFunc.
func (op BinaryOp) Func() population.BinaryFunc {
	return func(x, y uint64) uint64 { return op.Exact(x, y) }
}

// String implements fmt.Stringer.
func (op BinaryOp) String() string {
	switch op {
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	default:
		return fmt.Sprintf("BinaryOp(%d)", int(op))
	}
}

// UnaryEngine evaluates a single-operand operation through a calculation
// TCAM. The backing store is either a private physical table or a tenant
// slice of a shared one.
type UnaryEngine struct {
	store tcam.Store
	width int
}

// NewUnaryEngine builds an engine over a fresh private table with the given
// capacity (0 = unbounded, the paper's ideal baseline) and installs the
// entries.
func NewUnaryEngine(name string, width, capacity int, entries []population.UnaryEntry) (*UnaryEngine, error) {
	t, err := tcam.New(name, capacity, width)
	if err != nil {
		return nil, err
	}
	return NewUnaryEngineOn(t, entries)
}

// NewUnaryEngineOn mounts an engine on an existing single-field store — a
// private table or a tenant slice of a shared calculation TCAM — and
// installs the entries.
func NewUnaryEngineOn(store tcam.Store, entries []population.UnaryEntry) (*UnaryEngine, error) {
	widths := store.FieldWidths()
	if len(widths) != 1 {
		return nil, fmt.Errorf("arith: unary engine needs a 1-field store, %q has %d", store.Name(), len(widths))
	}
	e := &UnaryEngine{store: store, width: widths[0]}
	if _, err := e.Reload(entries); err != nil {
		return nil, err
	}
	return e, nil
}

// Reload reconciles the table contents toward the given entries, returning
// the TCAM write count (the quantity the control-plane delay model charges
// for). Entries already installed with the same result cost nothing — the
// driver diffs against its shadow copy, as real switch drivers do.
//
// Reload is transactional: if any row write fails (e.g. injected driver
// faults) the previous population remains installed in full, so a lookup
// never observes a partially reloaded table.
func (e *UnaryEngine) Reload(entries []population.UnaryEntry) (int, error) {
	rows := make([]tcam.Row, len(entries))
	for i, en := range entries {
		rows[i] = tcam.RowFromPrefix(en.P, en.Result)
	}
	return e.store.ApplyRowsAtomic(rows)
}

// Eval resolves one operand as a batch of one through the lookup
// EvalBatchInto uses and returns the precomputed result. A miss is ErrMiss;
// action data that is not a uint64 or non-negative int is ErrResultType.
func (e *UnaryEngine) Eval(x uint64) (uint64, error) {
	var sc Scratch
	ords, pay := sc.lookupBatch(e.store, []uint64{x})
	if ords[0] < 0 {
		return 0, fmt.Errorf("%w: %s(%d)", ErrMiss, e.store.Name(), x)
	}
	return resultOf(ords[0], pay)
}

// resultOf resolves a hit ordinal to its result value.
func resultOf(ord int32, pay tcam.Payloads) (uint64, error) {
	if r, ok := pay.Value(ord); ok {
		return r, nil
	}
	return 0, fmt.Errorf("%w: %T", ErrResultType, pay.Entry(ord).Data)
}

// Scratch holds the reusable buffers the typed batch-evaluation path
// threads through the TCAM's ordinal lookup: the flat packed-key buffer
// (binary engines only) and the resolved-ordinal buffer, plus an opt-in
// generation-keyed hot-key result cache (EnableCache) that stands aside
// wherever it does not pay. The zero value is ready to use; a caller that
// keeps one Scratch per replay worker makes every steady-state
// EvalBatchInto call allocation-free. A Scratch must not be shared by
// concurrent callers.
type Scratch struct {
	flat []uint64
	ords []int32

	// cache memoizes key → ordinal across batches; see tcam.LookupCache
	// for the invalidation model and the bypass rule. It serves only the
	// store it was armed for — an engine over a different store bypasses
	// it.
	cache        *tcam.LookupCache
	cacheEntries int
}

// EnableCache arms the scratch with a hot-key result cache of at least
// `entries` slots in front of store. Re-arming with the same store and size
// is a no-op (the warm cache is kept); a different store or size rebinds a
// cold cache. entries <= 0, or a store that cannot be cached (no snapshot
// surface), leaves lookups uncached.
func (sc *Scratch) EnableCache(store tcam.Store, entries int) {
	if sc.cache != nil && sc.cache.Store() == store && sc.cacheEntries == entries {
		return
	}
	sc.cache = tcam.NewLookupCache(store, entries)
	sc.cacheEntries = entries
}

// EnableDedup does nothing. It once armed an intra-batch operand dedup
// fold, which lost wherever it was armed and was removed; the method stays
// so existing callers keep compiling.
//
// Deprecated: every lookup resolves through the store or the cache.
func (sc *Scratch) EnableDedup() {}

// CacheStats returns the armed cache's cumulative counters (zero when no
// cache is armed).
func (sc *Scratch) CacheStats() tcam.CacheStats {
	if sc.cache == nil {
		return tcam.CacheStats{}
	}
	return sc.cache.Stats()
}

// lookupBatch resolves packed key tuples through the armed cache when it
// fronts this store, else directly. Either way the ordinal buffer is the
// scratch's reusable one and the results are bit-identical.
func (sc *Scratch) lookupBatch(store tcam.Store, flat []uint64) ([]int32, tcam.Payloads) {
	var ords []int32
	var pay tcam.Payloads
	if sc.cache != nil && sc.cache.Store() == store {
		ords, pay = sc.cache.LookupIndexBatch(flat, sc.ords)
	} else {
		ords, pay = store.LookupIndexBatch(flat, sc.ords)
	}
	sc.ords = ords
	return ords, pay
}

// gather writes each ordinal's result into dst — 0 where the lookup missed
// or the action data is not integral — and counts those misses.
func gather(dst []uint64, ords []int32, pay tcam.Payloads) (misses int) {
	for i, ord := range ords {
		r, ok := pay.Value(ord)
		if !ok {
			misses++
		}
		dst[i] = r
	}
	return misses
}

// sizeU64 returns dst resized to n elements, reusing its backing array when
// the capacity allows.
func sizeU64(dst []uint64, n int) []uint64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]uint64, n)
}

// EvalBatch resolves a whole operand batch against one compiled table
// snapshot — the parallel-replay path. Results are positional; an operand
// that misses (or hits a corrupt entry) leaves 0 at its position and is
// counted in misses. All results come from the same committed population.
// It allocates the result slice; the hot path is EvalBatchInto.
func (e *UnaryEngine) EvalBatch(xs []uint64) (results []uint64, misses int) {
	return e.EvalBatchInto(nil, xs, nil)
}

// EvalBatchInto is EvalBatch writing into dst (reused when it has the
// capacity) and threading sc's buffers through the typed ordinal lookup, so
// a caller recycling both performs zero allocations per batch: no interface
// assertion per sample, no fresh result slice. sc may be nil, costing one
// transient ordinal buffer. Results and miss accounting are bit-identical
// to EvalBatch.
func (e *UnaryEngine) EvalBatchInto(dst []uint64, xs []uint64, sc *Scratch) (results []uint64, misses int) {
	var local Scratch
	if sc == nil {
		sc = &local
	}
	dst = sizeU64(dst, len(xs))
	ords, pay := sc.lookupBatch(e.store, xs)
	return dst, gather(dst, ords, pay)
}

// Table exposes the underlying physical table for resource accounting. It
// returns nil when the engine is mounted on a tenant slice rather than a
// private table; use Store for the backing-agnostic surface.
func (e *UnaryEngine) Table() *tcam.Table { t, _ := e.store.(*tcam.Table); return t }

// Store exposes the backing store (private table or tenant slice).
func (e *UnaryEngine) Store() tcam.Store { return e.store }

// Width returns the operand width in bits.
func (e *UnaryEngine) Width() int { return e.width }

// BinaryEngine evaluates a two-operand operation through a two-field
// calculation TCAM.
type BinaryEngine struct {
	store tcam.Store
	width int
}

// NewBinaryEngine builds a two-field engine with equal field widths and
// installs the entries.
func NewBinaryEngine(name string, width, capacity int, entries []population.BinaryEntry) (*BinaryEngine, error) {
	return NewBinaryEngineWidths(name, width, width, capacity, entries)
}

// NewBinaryEngineWidths builds a two-field engine with distinct per-field
// widths (e.g. an 8-bit rate key against a 20-bit inter-arrival key).
func NewBinaryEngineWidths(name string, widthX, widthY, capacity int, entries []population.BinaryEntry) (*BinaryEngine, error) {
	t, err := tcam.New(name, capacity, widthX, widthY)
	if err != nil {
		return nil, err
	}
	return NewBinaryEngineOn(t, entries)
}

// NewBinaryEngineOn mounts an engine on an existing two-field store — a
// private table or a tenant slice of a shared calculation TCAM — and
// installs the entries.
func NewBinaryEngineOn(store tcam.Store, entries []population.BinaryEntry) (*BinaryEngine, error) {
	widths := store.FieldWidths()
	if len(widths) != 2 {
		return nil, fmt.Errorf("arith: binary engine needs a 2-field store, %q has %d", store.Name(), len(widths))
	}
	w := widths[0]
	if widths[1] > w {
		w = widths[1]
	}
	e := &BinaryEngine{store: store, width: w}
	if _, err := e.Reload(entries); err != nil {
		return nil, err
	}
	return e, nil
}

// Reload reconciles the table contents toward the given entries, returning
// the write count (unchanged rows cost nothing). Like the unary Reload it
// is transactional: a failed reload leaves the previous population intact.
func (e *BinaryEngine) Reload(entries []population.BinaryEntry) (int, error) {
	rows := make([]tcam.Row, len(entries))
	for i, en := range entries {
		rows[i] = tcam.Row{
			Fields: []tcam.Field{tcam.FieldFromPrefix(en.X), tcam.FieldFromPrefix(en.Y)},
			Data:   en.Result,
		}
	}
	return e.store.ApplyRowsAtomic(rows)
}

// Eval resolves one operand pair as a batch of one through the lookup
// EvalBatchInto uses and returns the precomputed result, with the unary
// Eval's ErrMiss/ErrResultType contract.
func (e *BinaryEngine) Eval(x, y uint64) (uint64, error) {
	var sc Scratch
	ords, pay := sc.lookupBatch(e.store, []uint64{x, y})
	if ords[0] < 0 {
		return 0, fmt.Errorf("%w: %s(%d, %d)", ErrMiss, e.store.Name(), x, y)
	}
	return resultOf(ords[0], pay)
}

// EvalBatch is the two-operand batch evaluation: pairs (xs[i], ys[i]) are
// resolved against one compiled snapshot. Mismatched slice lengths evaluate
// the common prefix. It allocates the result slice; the hot path is
// EvalBatchInto.
func (e *BinaryEngine) EvalBatch(xs, ys []uint64) (results []uint64, misses int) {
	return e.EvalBatchInto(nil, xs, ys, nil)
}

// EvalBatchInto is EvalBatch writing into dst (reused when it has the
// capacity). Operand pairs are packed into sc's flat key buffer —
// [x0 y0 x1 y1 …] — instead of per-pair sub-slices, and resolved through
// the typed ordinal lookup, so a caller recycling dst and sc performs zero
// allocations per batch. sc may be nil, costing transient buffers. Results
// and miss accounting are bit-identical to EvalBatch.
func (e *BinaryEngine) EvalBatchInto(dst []uint64, xs, ys []uint64, sc *Scratch) (results []uint64, misses int) {
	var local Scratch
	if sc == nil {
		sc = &local
	}
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	flat := sizeU64(sc.flat, 2*n)
	sc.flat = flat
	for i := 0; i < n; i++ {
		flat[2*i], flat[2*i+1] = xs[i], ys[i]
	}
	dst = sizeU64(dst, n)
	ords, pay := sc.lookupBatch(e.store, flat)
	return dst, gather(dst, ords, pay)
}

// Table exposes the underlying physical table for resource accounting. It
// returns nil when the engine is mounted on a tenant slice rather than a
// private table; use Store for the backing-agnostic surface.
func (e *BinaryEngine) Table() *tcam.Table { t, _ := e.store.(*tcam.Table); return t }

// Store exposes the backing store (private table or tenant slice).
func (e *BinaryEngine) Store() tcam.Store { return e.store }

// Width returns the operand width in bits.
func (e *BinaryEngine) Width() int { return e.width }

// LogEngine performs multiplication/division through log and antilog unary
// engines plus a native addition/subtraction, the [12] pipeline realised in
// TCAM hardware terms.
type LogEngine struct {
	logT    *UnaryEngine
	antilog *UnaryEngine
	scale   uint64
}

// NewLogEngine installs the given log tables into two hardware tables with
// the stated capacities (0 = unbounded).
func NewLogEngine(name string, lt *population.LogTables, capLog, capAntilog int) (*LogEngine, error) {
	logE, err := NewUnaryEngine(name+".log", lt.Width, capLog, lt.Log)
	if err != nil {
		return nil, err
	}
	alE, err := NewUnaryEngine(name+".antilog", lt.AntilogWidth, capAntilog, lt.Antilog)
	if err != nil {
		return nil, err
	}
	return &LogEngine{logT: logE, antilog: alE, scale: lt.Scale}, nil
}

// Multiply evaluates x*y as antilog(log x + log y).
func (e *LogEngine) Multiply(x, y uint64) (uint64, error) {
	if x == 0 || y == 0 {
		return 0, nil
	}
	lx, err := e.logT.Eval(x)
	if err != nil {
		return 0, err
	}
	ly, err := e.logT.Eval(y)
	if err != nil {
		return 0, err
	}
	return e.antilog.Eval(lx + ly)
}

// Divide evaluates x/y as antilog(log x − log y).
func (e *LogEngine) Divide(x, y uint64) (uint64, error) {
	if y == 0 {
		return 0, fmt.Errorf("%w: divide by zero", ErrMiss)
	}
	if x == 0 {
		return 0, nil
	}
	lx, err := e.logT.Eval(x)
	if err != nil {
		return 0, err
	}
	ly, err := e.logT.Eval(y)
	if err != nil {
		return 0, err
	}
	if ly >= lx {
		if ly-lx > e.scale/2 {
			return 0, nil
		}
		return 1, nil
	}
	return e.antilog.Eval(lx - ly)
}

// TotalEntries returns the combined TCAM footprint.
func (e *LogEngine) TotalEntries() int { return e.logT.Table().Len() + e.antilog.Table().Len() }
