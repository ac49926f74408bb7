package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/tenant"
)

// SharedConfig parameterises a Registry: one physical calculation TCAM
// carved into per-tenant slices, with an elastic budget arbiter on top.
type SharedConfig struct {
	// Name is the physical table name.
	Name string
	// TotalEntries is the physical calculation-table capacity shared by
	// every tenant.
	TotalEntries int
	// OperandWidths are the physical operand field widths (after the tenant
	// discriminator); every mounted system's fields must fit inside them.
	// Default [16, 16].
	OperandWidths []int
	// TenantIDBits sizes the tenant discriminator field (default 8).
	TenantIDBits int
	// BandSize is the per-tenant priority band width (default 1<<20).
	BandSize int
	// Arbiter tunes the elastic reallocation policy. Arbiter.Every <= 0
	// keeps the mounted quotas static (the equal-split baseline).
	Arbiter tenant.ArbiterConfig
}

// RegistrySyncReport is one shared control round: every tenant's own round
// plus the arbiter's verdict for the round.
type RegistrySyncReport struct {
	// Tenants maps tenant name to its control-round report.
	Tenants map[string]SyncReport
	// Arbiter records budget moves settled or decided this round.
	Arbiter tenant.Report
}

// Registry mounts multiple ADA systems onto one physical calculation TCAM.
// Each mount opens a tenant slice (its own priority band and quota) and
// builds a full system — monitors, controller, engine — whose calculation
// stage is the slice. Sync runs every tenant's control round concurrently
// and then lets the arbiter move budget between slices.
type Registry struct {
	cfg     SharedConfig
	part    *tenant.Partition
	arb     *tenant.Arbiter
	tenants []*Tenant // mount order; the arbiter settles grants in it
	byName  map[string]*Tenant
}

// NewRegistry builds the shared table and its arbiter.
func NewRegistry(cfg SharedConfig) (*Registry, error) {
	part, err := tenant.NewPartition(tenant.Config{
		Name:          cfg.Name,
		TotalEntries:  cfg.TotalEntries,
		OperandWidths: cfg.OperandWidths,
		TenantIDBits:  cfg.TenantIDBits,
		BandSize:      cfg.BandSize,
	})
	if err != nil {
		return nil, err
	}
	return &Registry{
		cfg:    cfg,
		part:   part,
		arb:    tenant.NewArbiter(part, cfg.Arbiter),
		byName: make(map[string]*Tenant),
	}, nil
}

// Tenant is one mounted system plus its slice — the handle the arbiter
// negotiates with (it implements tenant.Member).
type Tenant struct {
	name   string
	slice  *tenant.Slice
	part   *tenant.Partition
	unary  *UnarySystem
	binary *BinarySystem
}

// MountUnary opens a slice with cfg.CalcEntries quota and builds a unary
// system whose calculation stage is that slice. cfg.CalcCapacity is ignored
// (the slice's quota is its capacity, and it moves under arbitration).
func (r *Registry) MountUnary(name string, cfg Config, op arith.UnaryOp) (*Tenant, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	slice, err := r.part.Open(name, []int{cfg.Width}, cfg.CalcEntries)
	if err != nil {
		return nil, err
	}
	engine, err := arith.NewUnaryEngineOn(slice, nil)
	if err != nil {
		return nil, err
	}
	sys, err := newUnaryOn("ada."+name, cfg, op, engine)
	if err != nil {
		return nil, err
	}
	t := &Tenant{name: name, slice: slice, part: r.part, unary: sys}
	r.tenants = append(r.tenants, t)
	r.byName[name] = t
	return t, nil
}

// MountBinary opens a slice with cfg.CalcEntries quota and builds a binary
// system (both operands at cfg.Width) whose calculation stage is that slice.
func (r *Registry) MountBinary(name string, cfg Config, op arith.BinaryOp) (*Tenant, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	slice, err := r.part.Open(name, []int{cfg.Width, cfg.Width}, cfg.CalcEntries)
	if err != nil {
		return nil, err
	}
	engine, err := arith.NewBinaryEngineOn(slice, nil)
	if err != nil {
		return nil, err
	}
	sys, err := newBinaryOn("ada."+name, cfg, op, engine)
	if err != nil {
		return nil, err
	}
	t := &Tenant{name: name, slice: slice, part: r.part, binary: sys}
	r.tenants = append(r.tenants, t)
	r.byName[name] = t
	return t, nil
}

// Sync runs one control round for every tenant concurrently (each tenant's
// round is independent; slice commits serialise inside the partition), then
// hands the round to the arbiter, which settles pending grants from freed
// headroom and — on its cadence — recomputes the split from fresh pressure
// signals. Driver failures stay per-tenant Degraded reports, not errors.
func (r *Registry) Sync() (RegistrySyncReport, error) {
	return r.SyncCtx(context.Background())
}

// SyncCtx is Sync with cancellation: a cancelled context aborts each tenant's
// round between driver operations, and the per-tenant reports come back
// Degraded with reason "cancelled" (the fabric scheduler's per-round
// deadline seam).
func (r *Registry) SyncCtx(ctx context.Context) (RegistrySyncReport, error) {
	out := RegistrySyncReport{Tenants: make(map[string]SyncReport, len(r.tenants))}
	reps := make([]SyncReport, len(r.tenants))
	errs := make([]error, len(r.tenants))
	var wg sync.WaitGroup
	for i, t := range r.tenants {
		wg.Add(1)
		go func(i int, t *Tenant) {
			defer wg.Done()
			reps[i], errs[i] = t.SyncCtx(ctx)
		}(i, t)
	}
	wg.Wait()
	for i, t := range r.tenants {
		if errs[i] != nil {
			return out, fmt.Errorf("core: tenant %q: %w", t.name, errs[i])
		}
		out.Tenants[t.name] = reps[i]
	}
	arbRep, err := r.arb.RoundDone(r.members())
	out.Arbiter = arbRep
	if err != nil {
		return out, err
	}
	return out, nil
}

// SyncTenants runs one control round for only the named tenants — the
// externally-paced seam the service layer's drift pacer drives: a round is
// spent where traffic moved instead of on every tenant every cadence. The
// subset's rounds run concurrently exactly as in SyncCtx, and the arbiter
// still sees every mounted member afterwards but a restarted one (see
// members), so budget keeps flowing toward pressure even when most tenants
// sat the round out. Unknown names are
// errors; an empty subset just runs the arbiter settle step. Fabric
// implements the same method switch-by-switch, so the serve layer paces
// either through one seam.
func (r *Registry) SyncTenants(ctx context.Context, names []string) (map[string]SyncReport, error) {
	out := make(map[string]SyncReport, len(names))
	subset := make([]*Tenant, len(names))
	for i, name := range names {
		t, ok := r.byName[name]
		if !ok {
			return out, fmt.Errorf("core: sync subset: %w: %q", tenant.ErrTenant, name)
		}
		subset[i] = t
	}
	reps := make([]SyncReport, len(subset))
	errs := make([]error, len(subset))
	var wg sync.WaitGroup
	for i, t := range subset {
		wg.Add(1)
		go func(i int, t *Tenant) {
			defer wg.Done()
			reps[i], errs[i] = t.SyncCtx(ctx)
		}(i, t)
	}
	wg.Wait()
	for i, t := range subset {
		if errs[i] != nil {
			return out, fmt.Errorf("core: tenant %q: %w", t.name, errs[i])
		}
		out[t.name] = reps[i]
	}
	if _, err := r.arb.RoundDone(r.members()); err != nil {
		return out, err
	}
	return out, nil
}

// members lists the tenants the arbiter weighs, in mount order. A tenant
// restarted since its last committed round sits out and keeps its budget:
// its rebuilt trie holds no hits yet, so its pressure would read zero and a
// round of the other tenants would hand its budget to them. It rejoins once
// a round of its own has committed.
func (r *Registry) members() []tenant.Member {
	members := make([]tenant.Member, 0, len(r.tenants))
	for _, t := range r.tenants {
		if t.unary == nil || !t.unary.restarted {
			members = append(members, t)
		}
	}
	return members
}

// FindTenant returns a mounted tenant by name — the lookup shape the serve
// package's Cluster seam expects (Fabric implements the same method).
func (r *Registry) FindTenant(name string) (*Tenant, bool) {
	return r.Tenant(name)
}

// Unmount evicts a tenant: its slice's physical rows are deleted in one
// transactional commit and its reservation leaves the ledger, freeing
// headroom for the remaining tenants. The evicted system keeps functioning
// as a detached shell — observations still land in its monitors and lookups
// simply miss — so concurrent data-plane callers holding the old handle stay
// safe while the fabric reroutes them. A failed physical delete (injected
// row faults) leaves the tenant fully mounted.
func (r *Registry) Unmount(name string) (int, error) {
	t, ok := r.byName[name]
	if !ok {
		return 0, fmt.Errorf("core: unmount: %w: %q", tenant.ErrTenant, name)
	}
	writes, err := r.part.Close(name)
	if err != nil {
		return 0, err
	}
	delete(r.byName, name)
	for i, tt := range r.tenants {
		if tt == t {
			r.tenants = append(r.tenants[:i], r.tenants[i+1:]...)
			break
		}
	}
	return writes, nil
}

// Partition exposes the underlying slice manager (validation, headroom).
func (r *Registry) Partition() *tenant.Partition { return r.part }

// Table exposes the physical calculation TCAM (layout, fault injection).
func (r *Registry) Table() *tcam.Table { return r.part.Table() }

// Tenant returns a mounted tenant by name.
func (r *Registry) Tenant(name string) (*Tenant, bool) {
	t, ok := r.byName[name]
	return t, ok
}

// Tenants returns the mounted tenants in mount order.
func (r *Registry) Tenants() []*Tenant {
	out := make([]*Tenant, len(r.tenants))
	copy(out, r.tenants)
	return out
}

// Budgets snapshots every tenant's current entry budget.
func (r *Registry) Budgets() map[string]int {
	out := make(map[string]int, len(r.tenants))
	for _, t := range r.tenants {
		out[t.name] = t.Budget()
	}
	return out
}

// Name returns the tenant's mount name.
func (t *Tenant) Name() string { return t.name }

// Slice exposes the tenant's TCAM slice.
func (t *Tenant) Slice() *tenant.Slice { return t.slice }

// Unary returns the mounted unary system (nil for a binary tenant).
func (t *Tenant) Unary() *UnarySystem { return t.unary }

// Binary returns the mounted binary system (nil for a unary tenant).
func (t *Tenant) Binary() *BinarySystem { return t.binary }

// Sync runs the tenant's own control round.
func (t *Tenant) Sync() (SyncReport, error) {
	return t.SyncCtx(context.Background())
}

// SyncCtx runs the tenant's own control round with cancellation.
func (t *Tenant) SyncCtx(ctx context.Context) (SyncReport, error) {
	if t.unary != nil {
		return t.unary.SyncCtx(ctx)
	}
	return t.binary.SyncCtx(ctx)
}

// TenantName implements tenant.Member.
func (t *Tenant) TenantName() string { return t.name }

// Budget implements tenant.Member: the system's live calculation budget
// (kept equal to the slice quota by SetBudget).
func (t *Tenant) Budget() int {
	if t.unary != nil {
		return t.unary.CalcBudget()
	}
	return t.binary.CalcBudget()
}

// SetBudget implements tenant.Member: move the slice quota first (the
// partition enforces headroom on growth), then retarget the control loop so
// the next populate fits the new quota.
func (t *Tenant) SetBudget(n int) error {
	if err := t.part.SetQuota(t.name, n); err != nil {
		return err
	}
	if t.unary != nil {
		return t.unary.SetCalcBudget(n)
	}
	return t.binary.SetCalcBudget(n)
}

// Pressure implements tenant.Member: Algorithm 3's residual error terms
// over the tenant's own monitoring tries, evaluated at a hypothetical budget
// (the arbiter's marginal-gain probe). Read-only against the tries.
func (t *Tenant) Pressure(budget int) (tenant.Signal, error) {
	var pr population.Pressure
	var err error
	if t.unary != nil {
		pr, err = population.UnaryErrorPressure(t.unary.ctl.Trie(), budget)
	} else {
		pr, err = population.BinaryErrorPressure(t.binary.ctlX.Trie(), t.binary.ctlY.Trie(), budget)
	}
	if err != nil {
		return tenant.Signal{}, err
	}
	return tenant.Signal{Pressure: pr.Total, Marginal: pr.Marginal, Hits: pr.Hits}, nil
}

var _ tenant.Member = (*Tenant)(nil)
