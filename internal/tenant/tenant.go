// Package tenant carves one physical calculation TCAM into per-operation
// slices so several ADA systems (QCN, RCP, rate limiting, heavy-hitter
// squares, …) share a single table — the deployment shape of a real PISA
// pipeline, where stage memory is one pool, not one TCAM per operation.
//
// A Partition owns the physical table and hands out Slices. Isolation is
// structural, not cooperative:
//
//   - every slice's rows carry a fully-specified tenant-ID field (the first
//     physical match field), so a tenant's lookups can only ever resolve to
//     its own rows;
//   - every slice installs its rows inside a private, disjoint priority band,
//     so no two slices ever overlap in priority space;
//   - every slice commit is checked against the slice's quota, and quota
//     changes follow a shrink-before-grow ledger: a beneficiary is granted
//     room only out of measured free headroom (capacity − Σ max(used, quota)),
//     so the physical table can never be driven past its capacity even while
//     a victim still occupies the entries it has been asked to give back.
//
// The physical table is the only record of a slice's rows: a slice
// validates each row, translates it into its band and forwards it, and
// keeps nothing but a count of the rows its band holds. Reads (Fingerprint,
// ReadRows) filter the physical entries by tenant ID and band, and the
// physical key index resolves every delete and tells an insert from a data
// rewrite. Core's commit shadow remains the record of what the controller
// meant to install.
//
// A Slice implements tcam.Store, so the arithmetic engines and the control
// plane run on it unchanged; relative to a private table of the same budget
// the committed population, write counts, and fingerprints are identical,
// under silent hardware faults too (the differential tests in this package
// and internal/core prove it). The Arbiter (arbiter.go) moves quota between
// slices toward whichever operation's marginal error is highest.
package tenant

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/ada-repro/ada/internal/tcam"
)

var (
	// ErrConfig reports an invalid partition or slice configuration.
	ErrConfig = errors.New("tenant: invalid configuration")
	// ErrQuota reports a quota change the ledger cannot grant.
	ErrQuota = errors.New("tenant: quota exceeds free headroom")
	// ErrTenant reports an unknown or duplicate tenant name.
	ErrTenant = errors.New("tenant: unknown or duplicate tenant")
	// ErrClosed reports a commit against a slice whose tenant has been
	// closed (e.g. migrated to another switch by the fabric arbiter).
	ErrClosed = errors.New("tenant: slice closed")
)

// Config sizes a partition's physical table.
type Config struct {
	// Name is the physical table name; slices are named Name/tenant.
	Name string
	// TotalEntries is the physical capacity shared by all slices; > 0.
	TotalEntries int
	// TenantIDBits is the width of the tenant-ID discriminator field
	// (first physical match field). Default 8 (255 tenants).
	TenantIDBits int
	// OperandWidths are the physical operand field widths. A slice may use
	// a prefix of these fields at narrower widths; unused fields are
	// wildcarded. Default [16, 16].
	OperandWidths []int
	// BandSize is the priority span reserved per slice; tenant-local
	// priorities must stay below it. Default 1<<20.
	BandSize int
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "ada.shared.calc"
	}
	if c.TenantIDBits == 0 {
		c.TenantIDBits = 8
	}
	if len(c.OperandWidths) == 0 {
		c.OperandWidths = []int{16, 16}
	}
	if c.BandSize == 0 {
		c.BandSize = 1 << 20
	}
	return c
}

// Partition carves one physical tcam.Table into tenant slices.
type Partition struct {
	mu   sync.Mutex
	cfg  Config
	phys *tcam.Table

	slices []*Slice
	byName map[string]*Slice
	// nextID hands out tenant-ID field values; IDs of closed tenants are
	// never reused, so a stale engine can never resolve a successor's rows.
	nextID uint64

	// committing is the slice whose commit currently holds mu; the
	// physical write hook counts its row writes against its quota and
	// dispatches per-row faults to it. All physical mutations go through
	// slice commits, so it is only read under mu.
	committing *Slice
	// tally is the committing slice's band row count after the writes its
	// commit has issued so far.
	tally int
	// hook is the partition-global write hook (chaos soaks attach here).
	hook tcam.WriteHook
}

// NewPartition allocates the physical table: one fully-specified tenant-ID
// field followed by the operand fields.
func NewPartition(cfg Config) (*Partition, error) {
	cfg = cfg.withDefaults()
	if cfg.TotalEntries <= 0 {
		return nil, fmt.Errorf("%w: TotalEntries %d", ErrConfig, cfg.TotalEntries)
	}
	if cfg.TenantIDBits < 1 || cfg.TenantIDBits > 32 {
		return nil, fmt.Errorf("%w: TenantIDBits %d", ErrConfig, cfg.TenantIDBits)
	}
	if cfg.BandSize < 1 {
		return nil, fmt.Errorf("%w: BandSize %d", ErrConfig, cfg.BandSize)
	}
	widths := append([]int{cfg.TenantIDBits}, cfg.OperandWidths...)
	phys, err := tcam.New(cfg.Name, cfg.TotalEntries, widths...)
	if err != nil {
		return nil, err
	}
	p := &Partition{cfg: cfg, phys: phys, byName: make(map[string]*Slice)}
	phys.SetWriteHook(p.dispatch)
	return p, nil
}

// Table exposes the physical table for resource accounting and layout; all
// mutations must go through slices.
func (p *Partition) Table() *tcam.Table { return p.phys }

// SetWriteHook installs a partition-global per-row hook, consulted before
// the committing slice's own hook. Used by chaos soaks that fault the shared
// table as a whole.
func (p *Partition) SetWriteHook(h tcam.WriteHook) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hook = h
}

// dispatch runs with the physical table lock held, inside a slice commit
// that holds p.mu. It sees every physical write of the committing slice, so
// it enforces the quota at the first insert past it, the way a private
// table enforces its capacity; the physical table then rolls the commit
// back.
func (p *Partition) dispatch(op tcam.WriteOp) error {
	s := p.committing
	switch op {
	case tcam.WriteInsert:
		if p.tally >= s.quota {
			return &tcam.CapacityError{Table: s.Name(), Capacity: s.quota, Installed: p.tally, Requested: 1}
		}
		p.tally++
	case tcam.WriteDelete:
		p.tally--
	}
	if p.hook != nil {
		if err := p.hook(op); err != nil {
			return err
		}
	}
	if s.hook != nil {
		return s.hook(op)
	}
	return nil
}

// Open admits a tenant: widths are its operand field widths (a prefix of the
// physical operand fields, each no wider), quota its initial entry budget.
// The slice receives the next tenant ID and the priority band
// [id·BandSize, (id+1)·BandSize).
func (p *Partition) Open(name string, widths []int, quota int) (*Slice, error) {
	if name == "" || strings.ContainsAny(name, "/\n") {
		return nil, fmt.Errorf("%w: tenant name %q", ErrConfig, name)
	}
	if len(widths) == 0 || len(widths) > len(p.cfg.OperandWidths) {
		return nil, fmt.Errorf("%w: %d operand fields, physical table has %d", ErrConfig, len(widths), len(p.cfg.OperandWidths))
	}
	for i, w := range widths {
		if w < 1 || w > p.cfg.OperandWidths[i] {
			return nil, fmt.Errorf("%w: field %d width %d exceeds physical %d", ErrConfig, i, w, p.cfg.OperandWidths[i])
		}
	}
	if quota < 0 {
		return nil, fmt.Errorf("%w: quota %d", ErrConfig, quota)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.byName[name]; ok {
		return nil, fmt.Errorf("%w: %q already open", ErrTenant, name)
	}
	id := p.nextID + 1
	if id >= 1<<p.cfg.TenantIDBits {
		return nil, fmt.Errorf("%w: tenant-ID space exhausted (%d bits)", ErrConfig, p.cfg.TenantIDBits)
	}
	if quota > p.headroomLocked() {
		return nil, fmt.Errorf("%w: quota %d, headroom %d", ErrQuota, quota, p.headroomLocked())
	}
	s := &Slice{
		p:      p,
		name:   name,
		id:     id,
		bandLo: int(id) * p.cfg.BandSize,
		widths: append([]int(nil), widths...),
		quota:  quota,
	}
	p.nextID = id
	p.slices = append(p.slices, s)
	p.byName[name] = s
	return s, nil
}

// Close evicts a tenant: every physical row the slice's band holds, ghosts
// included, is deleted in key order in one transactional commit, the slice
// is marked closed (further commits fail with ErrClosed; lookups simply
// miss), and its reservation leaves the ledger, freeing headroom
// immediately. The delete goes through the same write-hook seam as any
// commit, so injected row faults can make a Close fail — in which case the
// slice stays open and installed, untouched. Returns the physical row
// deletes performed.
func (p *Partition) Close(name string) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrTenant, name)
	}
	writes, err := s.commitLocked(nil, s.staleLocked(nil))
	if err != nil {
		return 0, err
	}
	s.quota = 0
	s.closed = true
	delete(p.byName, name)
	for i, sl := range p.slices {
		if sl == s {
			p.slices = append(p.slices[:i], p.slices[i+1:]...)
			break
		}
	}
	return writes, nil
}

// headroomLocked is the free capacity the ledger may still grant: physical
// capacity minus every slice's effective reservation max(used, quota). Using
// the max means a slice asked to shrink keeps its old entries reserved until
// it actually commits the smaller population — shrink-before-grow.
func (p *Partition) headroomLocked() int {
	return max(p.cfg.TotalEntries-p.reservedLocked(), 0)
}

// reservedLocked is the ledger's total reservation Σ max(used, quota),
// where used counts the rows a slice's band physically holds.
func (p *Partition) reservedLocked() int {
	r := 0
	for _, s := range p.slices {
		r += max(s.rows, s.quota)
	}
	return r
}

// Headroom reports the free capacity available for quota grants.
func (p *Partition) Headroom() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.headroomLocked()
}

// SetQuota changes a tenant's entry budget. Decreases always succeed (the
// ledger keeps the old entries reserved until the tenant commits within the
// new quota); increases succeed only within the free headroom, so the grant
// can never oversubscribe the physical table.
func (p *Partition) SetQuota(name string, quota int) error {
	if quota < 0 {
		return fmt.Errorf("%w: quota %d", ErrConfig, quota)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrTenant, name)
	}
	if quota > s.quota {
		grow := quota - s.quota
		if free := p.headroomLocked(); grow > free {
			return fmt.Errorf("%w: +%d requested, %d free", ErrQuota, grow, free)
		}
	}
	s.quota = quota
	return nil
}

// Slices returns the open slices in admission order.
func (p *Partition) Slices() []*Slice {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Slice(nil), p.slices...)
}

// Slice returns the named tenant's slice.
func (p *Partition) Slice(name string) (*Slice, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.byName[name]
	return s, ok
}

// Validate checks the partition invariants against the physical table:
// occupancy within capacity, the ledger within capacity, every physical row
// owned by exactly one slice (fully-specified tenant-ID field), priorities
// inside the owner's band, and each slice's row count equal to the rows its
// band physically holds. The differential tests call it every round.
func (p *Partition) Validate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := p.phys.Len(); n > p.cfg.TotalEntries {
		return fmt.Errorf("tenant: physical table %q holds %d entries, capacity %d", p.cfg.Name, n, p.cfg.TotalEntries)
	}
	if reserved := p.reservedLocked(); reserved > p.cfg.TotalEntries {
		return fmt.Errorf("tenant: ledger reserves %d entries, capacity %d", reserved, p.cfg.TotalEntries)
	}
	tidMask := uint64(1)<<p.cfg.TenantIDBits - 1
	byID := make(map[uint64]*Slice, len(p.slices))
	for _, s := range p.slices {
		byID[s.id] = s
	}
	held := make(map[*Slice]int, len(p.slices))
	for _, e := range p.phys.Entries() {
		tid := e.Fields[0]
		if tid.Mask != tidMask {
			return fmt.Errorf("tenant: entry %d tenant-ID field not fully specified (mask %#x)", e.ID, tid.Mask)
		}
		s, ok := byID[tid.Value]
		if !ok {
			return fmt.Errorf("tenant: entry %d carries unknown tenant ID %d", e.ID, tid.Value)
		}
		if e.Priority < s.bandLo || e.Priority >= s.bandLo+p.cfg.BandSize {
			return fmt.Errorf("tenant: entry %d priority %d outside %q band [%d, %d)",
				e.ID, e.Priority, s.name, s.bandLo, s.bandLo+p.cfg.BandSize)
		}
		held[s]++
	}
	for _, s := range p.slices {
		if held[s] != s.rows {
			return fmt.Errorf("tenant: %q band holds %d physical rows, slice counts %d", s.name, held[s], s.rows)
		}
	}
	return nil
}

// Slice is one tenant's view of the shared table. It implements tcam.Store:
// the arithmetic engines and control plane treat it exactly like a private
// table whose capacity is the slice's current quota.
type Slice struct {
	p      *Partition
	name   string
	id     uint64
	bandLo int
	widths []int

	// quota, rows, version, closed, and hook are guarded by p.mu.
	quota int
	// rows counts the physical rows in the slice's band, ghosts included:
	// what a private table's Len reports.
	rows    int
	version uint64
	closed  bool
	hook    tcam.WriteHook
}

var _ tcam.Store = (*Slice)(nil)

// Name returns partition/tenant.
func (s *Slice) Name() string { return s.p.cfg.Name + "/" + s.name }

// TenantName returns the bare tenant name used with Partition.SetQuota.
func (s *Slice) TenantName() string { return s.name }

// ID returns the slice's tenant-ID field value.
func (s *Slice) ID() uint64 { return s.id }

// Band returns the slice's priority band [lo, hi).
func (s *Slice) Band() (lo, hi int) { return s.bandLo, s.bandLo + s.p.cfg.BandSize }

// FieldWidths returns the tenant-local operand widths.
func (s *Slice) FieldWidths() []int { return append([]int(nil), s.widths...) }

// Capacity reports the current quota.
func (s *Slice) Capacity() int {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.quota
}

// Len reports the rows the slice's band physically holds.
func (s *Slice) Len() int {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.rows
}

// Version follows the tcam package's Version contract (see the tcam package
// doc), scoped to this tenant: other tenants' commits do not advance it.
func (s *Slice) Version() uint64 {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.version
}

// Fingerprint digests the band's physical rows in the tenant-local layout,
// in the same format as a private table, so a slice and a standalone run of
// the same population fingerprint equal.
func (s *Slice) Fingerprint() string {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return tcam.DigestFingerprint(s.bandLocked())
}

// SetWriteHook installs a per-row hook consulted for this slice's physical
// commits only — fault injection scoped to one tenant.
func (s *Slice) SetWriteHook(h tcam.WriteHook) {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	s.hook = h
}

// validateLocal mirrors the private-table field validation against the
// tenant-local widths and keeps the priority inside the band size.
func (s *Slice) validateLocal(fields []tcam.Field, priority int) error {
	if len(fields) != len(s.widths) {
		return fmt.Errorf("tenant: %s: row has %d fields, slice has %d", s.Name(), len(fields), len(s.widths))
	}
	for i, f := range fields {
		if w := s.widths[i]; w < 64 {
			max := uint64(1)<<w - 1
			if f.Value > max || f.Mask > max {
				return fmt.Errorf("tenant: %s: field %d exceeds %d bits", s.Name(), i, w)
			}
		}
	}
	if priority < 0 || priority >= s.p.cfg.BandSize {
		return fmt.Errorf("tenant: %s: priority %d outside band size %d", s.Name(), priority, s.p.cfg.BandSize)
	}
	return nil
}

// physRow translates a validated tenant-local row to the physical layout:
// the fully-specified tenant-ID field, the operand fields, wildcards for
// unused physical fields, and the priority offset into the slice's band.
func (s *Slice) physRow(fields []tcam.Field, priority int, data any) tcam.Row {
	pf := make([]tcam.Field, 1+len(s.p.cfg.OperandWidths))
	pf[0] = tcam.Field{Value: s.id, Mask: uint64(1)<<s.p.cfg.TenantIDBits - 1}
	copy(pf[1:], fields)
	return tcam.Row{Fields: pf, Priority: s.bandLo + priority, Data: data}
}

// physRows validates tenant-local rows and translates them to the physical
// layout.
func (s *Slice) physRows(rows []tcam.Row) ([]tcam.Row, error) {
	out := make([]tcam.Row, len(rows))
	for i, r := range rows {
		if err := s.validateLocal(r.Fields, r.Priority); err != nil {
			return nil, err
		}
		out[i] = s.physRow(r.Fields, r.Priority, r.Data)
	}
	return out, nil
}

// physFlatPool recycles the translated key buffers LookupIndexBatch packs,
// so a tenant-mounted engine's steady-state batches stay allocation-free.
var physFlatPool = sync.Pool{New: func() any { return new([]uint64) }}

// LookupIndexBatch is the slice's one data-plane lookup: it translates the
// tenant-local packed tuples to the physical layout (tenant-ID first, unused
// operand fields zeroed against their wildcards) and resolves them against
// one compiled snapshot of the shared table. The fully-specified tenant-ID
// field restricts resolution to this slice's rows; within them, LPM order is
// identical to a private table's (the ID field adds a constant to every sig
// count, the band a constant to every priority). The returned ordinals and
// payloads are the physical table's.
func (s *Slice) LookupIndexBatch(flat []uint64, dst []int32) ([]int32, tcam.Payloads) {
	arity := len(s.widths)
	n := len(flat) / arity
	stride := 1 + len(s.p.cfg.OperandWidths)
	bufp := physFlatPool.Get().(*[]uint64)
	pk := *bufp
	if cap(pk) >= n*stride {
		pk = pk[:n*stride]
	} else {
		pk = make([]uint64, n*stride)
	}
	for i := 0; i < n; i++ {
		row := pk[i*stride : (i+1)*stride]
		row[0] = s.id
		copy(row[1:1+arity], flat[i*arity:(i+1)*arity])
		for j := 1 + arity; j < stride; j++ {
			row[j] = 0
		}
	}
	ords, pay := s.p.phys.LookupIndexBatch(pk, dst)
	*bufp = pk
	physFlatPool.Put(bufp)
	return ords, pay
}

// LookupSnapshot implements tcam.Snapshotter by delegating to the shared
// physical table: the ordinals a slice lookup returns are physical-table
// ordinals, so the physical snapshot generation is the correct validity
// token. Any tenant's commit (or an Unmount tearing a neighbour's rows out)
// advances it, which is conservative for the other tenants' caches but
// never stale.
func (s *Slice) LookupSnapshot() (tcam.Payloads, uint64) {
	return s.p.phys.LookupSnapshot()
}

var _ tcam.Snapshotter = (*Slice)(nil)

// ApplyRowsAtomic reconciles the slice's band toward rows, all-or-nothing,
// with the same write accounting as a private table: unchanged rows cost
// nothing, changed data one update, new rows one insert, and every other
// row the band physically holds one delete. It diffs against the band's
// physical contents, so it is also the anti-entropy repair: ghost rows are
// deleted, dropped rows reinstalled, corrupted payloads rewritten, and the
// write set never leaves the band. Rows must have distinct match keys
// (every population builder guarantees this).
func (s *Slice) ApplyRowsAtomic(rows []tcam.Row) (int, error) {
	physUp, err := s.physRows(rows)
	if err != nil {
		return 0, err
	}
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("%w: %s", ErrClosed, s.Name())
	}
	if len(rows) > s.quota {
		return 0, &tcam.CapacityError{Table: s.Name(), Capacity: s.quota, Installed: s.rows, Requested: len(rows)}
	}
	keep := make(map[string]bool, len(rows))
	var buf []byte
	for _, r := range rows {
		buf = rawKey(buf[:0], r.Fields, r.Priority)
		if keep[string(buf)] {
			return 0, fmt.Errorf("tenant: %s: duplicate match key %s", s.Name(), tcam.RowKey(r.Fields, r.Priority))
		}
		keep[string(buf)] = true
	}
	return s.commitLocked(physUp, s.staleLocked(keep))
}

// ApplyDelta applies an incremental reconciliation transactionally, exactly
// like tcam.Table.ApplyDelta scoped to this slice: the physical key index
// fails a delete of a key the band does not hold with tcam.ErrDeltaConflict
// and tells an insert from a data rewrite, and the first insert past the
// quota fails with a *tcam.CapacityError; either leaves the table untouched.
func (s *Slice) ApplyDelta(upserts, deletes []tcam.Row) (int, error) {
	physUp, err := s.physRows(upserts)
	if err != nil {
		return 0, err
	}
	physDel, err := s.physRows(deletes)
	if err != nil {
		return 0, err
	}
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("%w: %s", ErrClosed, s.Name())
	}
	return s.commitLocked(physUp, physDel)
}

// commitLocked forwards a translated delta to the physical table with the
// slice marked as committing (for quota and write-hook dispatch) and, on
// success, takes the band's row count from the commit's write tally; p.mu
// must be held. The slice version advances on every attempt, like a
// private table's.
func (s *Slice) commitLocked(physUp, physDel []tcam.Row) (int, error) {
	s.p.committing, s.p.tally = s, s.rows
	writes, err := s.p.phys.ApplyDelta(physUp, physDel)
	s.p.committing = nil
	if err == nil {
		s.rows = s.p.tally
	}
	s.version++
	return writes, err
}
