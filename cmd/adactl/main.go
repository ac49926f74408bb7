// Command adactl is the offline analogue of ADA's control plane: it reads a
// trace of operand values (one unsigned integer per line, or inline via
// -values), runs the monitoring trie to convergence, and prints the
// monitoring bins plus the calculation TCAM population it would install for
// the chosen operation — exactly what the gRPC controller pushes to the
// switch.
//
// With -faults the trace is instead replayed through the full closed-loop
// system (monitor → controller → calculation TCAM) with the switch driver
// wrapped in a deterministic fault injector, printing per-round retry and
// degradation behaviour — a command-line replay of the chaos experiments.
// Adding -audit N enables the controller's read-back audit every N rounds;
// silent row faults in the profile (corrupt=, ghost=, droprow=) are injected
// between rounds, and each audit's verdict (corrupted/ghost/missing rows and
// repair writes) is printed per round.
//
// With -fabric N the trace is instead fanned across an N-switch sharded
// fabric: -fabric-tenants clones of the operation are consistent-hashed over
// the switches (-calc is each switch's physical capacity, split equally among
// its tenants), the stream is round-robined across the tenants and replayed
// through the zero-allocation fan-out, and -fabric-workers concurrent control
// rounds run per fabric round. With -fabric-migrate M > 0 the fabric arbiter
// may migrate tenants toward spare capacity every M rounds; -faults wraps
// every tenant controller's switch driver in its own injector, seeded from
// the switch and the order of the mounts on it.
//
// Usage:
//
//	adactl -op square -width 16 -monitor 12 -calc 64 < trace.txt
//	adactl -op double -values 94,94,94,47,47
//	adactl -op square -faults default < trace.txt
//	adactl -op square -faults "seed=7,write=0.2,stale=0.05" -values 9,9,9,200
//	adactl -op square -faults "seed=7,corrupt=0.5,ghost=0.2" -audit 2 < trace.txt
//	adactl -op square -fabric 8 -fabric-tenants 6 -calc 128 < trace.txt
//	adactl -op sqrt -fabric 4 -faults outages -rounds 6 < trace.txt
//
// Invalid flag values (zero or negative budgets, a width outside [1, 64], a
// threshold outside [0, 1], a malformed fault profile, a negative fabric
// size, fabric sub-flags without -fabric, -audit or a width above 32 with
// -fabric) are usage errors: adactl reports them and exits with status 2;
// runtime failures exit 1.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/fabric"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/stats"
	"github.com/ada-repro/ada/internal/trie"
)

// usageError is a flag or argument validation failure: the values parsed but
// make no sense (negative budgets, a threshold outside [0,1], a malformed
// fault profile). main reports it and exits 2 — the conventional usage-error
// status — while runtime failures keep exiting 1.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adactl:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("adactl", flag.ContinueOnError)
	var (
		opName    = fs.String("op", "square", "operation: square, double, sqrt, log2, recip")
		width     = fs.Int("width", 16, "operand width in bits")
		monitorN  = fs.Int("monitor", 12, "monitoring TCAM entries")
		calcN     = fs.Int("calc", 64, "calculation TCAM entries")
		rounds    = fs.Int("rounds", 8, "control rounds over the trace")
		thBalance = fs.Float64("th-balance", 0.20, "Algorithm 2 rebalance threshold")
		values    = fs.String("values", "", "comma-separated operand values (default: read stdin)")
		faultSpec = fs.String("faults", "", `replay through a fault-injected driver: "default", "outages", or "seed=7,write=0.05,stale=0.01,..."`)
		auditN    = fs.Int("audit", 0, "with -faults: read-back audit of the calculation TCAM every N rounds (0 = off)")
		fabricN   = fs.Int("fabric", 0, "fan the trace across an N-switch sharded fabric (0 = single-switch mode)")
		fabricT   = fs.Int("fabric-tenants", 4, "with -fabric: tenant clones consistent-hashed over the switches")
		fabricW   = fs.Int("fabric-workers", 2, "with -fabric: concurrent control rounds per fabric round")
		fabricM   = fs.Int("fabric-migrate", 2, "with -fabric: fabric arbiter migration cadence in rounds (0 = static placement)")
	)
	if err := fs.Parse(args); err != nil {
		return usagef("%v", err)
	}
	if *fabricN == 0 {
		var stray string
		fs.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "fabric-tenants", "fabric-workers", "fabric-migrate":
				stray = fl.Name
			}
		})
		if stray != "" {
			return usagef("-%s requires -fabric", stray)
		}
	}
	switch {
	case *width < 1 || *width > 64:
		return usagef("-width must be in [1, 64], got %d", *width)
	case *monitorN < 1:
		return usagef("-monitor must be >= 1, got %d", *monitorN)
	case *calcN < 1:
		return usagef("-calc must be >= 1, got %d", *calcN)
	case *rounds < 1:
		return usagef("-rounds must be >= 1, got %d", *rounds)
	case math.IsNaN(*thBalance) || *thBalance < 0 || *thBalance > 1:
		return usagef("-th-balance must be in [0, 1], got %v", *thBalance)
	case *auditN < 0:
		return usagef("-audit must be >= 0, got %d", *auditN)
	case *fabricN < 0:
		return usagef("-fabric must be >= 0, got %d", *fabricN)
	}
	if *fabricN > 0 {
		switch {
		case *fabricT < 1:
			return usagef("-fabric-tenants must be >= 1, got %d", *fabricT)
		case *fabricW < 1:
			return usagef("-fabric-workers must be >= 1, got %d", *fabricW)
		case *fabricM < 0:
			return usagef("-fabric-migrate must be >= 0, got %d", *fabricM)
		case *auditN != 0:
			return usagef("-audit is not supported with -fabric (the audit is the single-switch closed loop)")
		case *width > 32:
			return usagef("-fabric packs operands with their tenant index; -width must be <= 32, got %d", *width)
		}
	}

	ops := map[string]arith.UnaryOp{
		"square": arith.OpSquare, "double": arith.OpDouble,
		"sqrt": arith.OpSqrt, "log2": arith.OpLog2, "recip": arith.OpRecip,
	}
	op, ok := ops[*opName]
	if !ok {
		return usagef("unknown operation %q", *opName)
	}

	trace, err := readTrace(stdin, *values)
	if err != nil {
		return err
	}
	if len(trace) == 0 {
		return fmt.Errorf("empty trace")
	}

	if *fabricN > 0 {
		return runFabric(stdout, op, *width, *monitorN, *calcN, *rounds,
			*thBalance, *faultSpec, *fabricN, *fabricT, *fabricW, *fabricM, trace)
	}
	if *faultSpec != "" {
		return runFaulty(stdout, op, *width, *monitorN, *calcN, *rounds, *auditN, *thBalance, *faultSpec, trace)
	}
	if *auditN != 0 {
		return usagef("-audit requires -faults (the audit only matters when the hardware can diverge)")
	}

	tr, err := trie.NewInitial(*monitorN, *width)
	if err != nil {
		return err
	}
	chunk := (len(trace) + *rounds - 1) / *rounds
	for start := 0; start < len(trace); start += chunk {
		end := start + chunk
		if end > len(trace) {
			end = len(trace)
		}
		tr.ResetHits()
		tr.RecordAll(trace[start:end])
		for i := 0; i < 4 && tr.Rebalance(*thBalance); i++ {
		}
	}
	tr.ResetHits()
	tr.RecordAll(trace)

	mon := stats.NewTable(
		fmt.Sprintf("Monitoring TCAM (%d bins over %d-bit operands, %d samples)",
			tr.NumLeaves(), *width, len(trace)),
		"entry", "range", "hits")
	for _, b := range tr.Leaves() {
		mon.AddF(b.Prefix.String(), fmt.Sprintf("[%d, %d]", b.Prefix.Lo(), b.Prefix.Hi()), b.Hits)
	}
	fmt.Fprintln(stdout, mon.String())

	entries, err := population.ADAUnary(tr, op.Func(), *calcN, population.Midpoint)
	if err != nil {
		return err
	}
	calc := stats.NewTable(
		fmt.Sprintf("Calculation TCAM for %v (%d entries)", op, len(entries)),
		"entry", "range", "result")
	for _, e := range entries {
		calc.AddF(e.P.String(), fmt.Sprintf("[%d, %d]", e.P.Lo(), e.P.Hi()), e.Result)
	}
	fmt.Fprintln(stdout, calc.String())
	return nil
}

// runFaulty replays the trace through the closed-loop system with the
// switch driver wrapped in a seeded fault injector: chunked observe+sync
// rounds, per-round degradation reporting, and the final monitoring shape.
// With auditN > 0 the controller also read-back audits the calculation TCAM
// every auditN rounds, and silent row faults in the profile (corrupt, ghost,
// droprow) are injected between rounds so the audits have something to find.
func runFaulty(stdout io.Writer, op arith.UnaryOp, width, monitorN, calcN, rounds, auditN int,
	thBalance float64, spec string, trace []uint64) error {
	prof, err := faults.ParseProfile(spec)
	if err != nil {
		return usagef("bad -faults spec: %v", err)
	}
	inj, err := faults.New(prof)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(width)
	cfg.MonitorEntries = monitorN
	cfg.CalcEntries = calcN
	cfg.ThBalance = thBalance
	cfg.WrapDriver = inj.Wrap
	cfg.AuditEvery = auditN
	sys, err := core.NewUnary(cfg, op)
	if err != nil {
		return err
	}
	inj.AttachTable(sys.Engine().Table())
	tamper := prof.Corrupt > 0 || prof.Ghost > 0 || prof.DropRow > 0

	tbl := stats.NewTable(
		fmt.Sprintf("Fault-injected replay for %v (profile %s, %d samples, %d rounds)",
			op, prof, len(trace), rounds),
		"round", "samples", "delay", "status", "retries", "driver errors", "audit")
	chunk := (len(trace) + rounds - 1) / rounds
	degraded := 0
	var audits, mismatches, repairWrites int
	for start, round := 0, 1; start < len(trace); start, round = start+chunk, round+1 {
		end := start + chunk
		if end > len(trace) {
			end = len(trace)
		}
		for _, v := range trace[start:end] {
			sys.Observe(v)
		}
		rep, err := sys.Sync()
		if err != nil {
			return err
		}
		status := "committed"
		if rep.Degraded {
			degraded++
			status = "degraded: " + string(rep.DegradedReason)
		}
		if rep.Health == controlplane.Unhealthy {
			status += " (unhealthy)"
		}
		audit := "-"
		if rep.AuditRan {
			audits++
			mismatches += rep.Audit.Mismatched()
			repairWrites += rep.Audit.RepairWrites
			if rep.Audit.Clean() {
				audit = "clean"
			} else {
				audit = fmt.Sprintf("%dc/%dg/%dm +%dw",
					rep.Audit.Corrupted, rep.Audit.Ghost, rep.Audit.Missing, rep.Audit.RepairWrites)
			}
		}
		tbl.AddF(round, end-start, rep.Delay, status, rep.Retries, rep.DriverErrors, audit)
		// Tamper after the commit so the silent divergence is what the next
		// audit reads back, not what the populate just overwrote.
		if tamper {
			if _, err := inj.TamperStore(sys.Engine().Table()); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(stdout, tbl.String())

	st := inj.Stats()
	fmt.Fprintf(stdout,
		"injected: %d write failures, %d row failures, %d dropped / %d stale snapshots, %d outage ops, %d ack drops, %v latency\n",
		st.WriteFailures, st.RowFailures, st.SnapshotDrops, st.StaleSnapshots, st.OutageOps, st.AckDrops, st.Injected)
	if tamper {
		fmt.Fprintf(stdout, "tampered: %d corrupted, %d ghost, %d dropped rows\n",
			st.TamperedRows, st.GhostRows, st.DroppedRows)
	}
	if auditN > 0 {
		fmt.Fprintf(stdout, "audits: %d ran, %d divergent rows found, %d repair writes\n",
			audits, mismatches, repairWrites)
	}
	fmt.Fprintf(stdout, "degraded rounds: %d (last good population kept serving)\n\n", degraded)

	tr := sys.Controller().Trie()
	mon := stats.NewTable(
		fmt.Sprintf("Final monitoring TCAM (%d bins, health %v)",
			tr.NumLeaves(), sys.Controller().Health()),
		"entry", "range", "hits")
	for _, b := range tr.Leaves() {
		mon.AddF(b.Prefix.String(), fmt.Sprintf("[%d, %d]", b.Prefix.Lo(), b.Prefix.Hi()), b.Hits)
	}
	fmt.Fprintln(stdout, mon.String())
	fmt.Fprintf(stdout, "calculation TCAM: %d entries installed (generation %d)\n",
		sys.Engine().Table().Len(), sys.Engine().Table().Generation())
	return nil
}

// runFabric fans the trace across a sharded multi-switch fabric: tenant
// clones of op are consistent-hashed over the switches with equal splits of
// each switch's -calc capacity, the stream is round-robined across the
// tenants, replayed through the zero-allocation sharded fan-out, and synced
// with concurrent per-switch control rounds. With migrateEvery > 0 the
// fabric arbiter may move tenants toward spare capacity; with a fault spec
// every tenant controller's driver runs behind its own injector, seeded from
// its switch and mount order, so concurrent tenant rounds on a switch draw
// from separate generators and a run is reproducible. Injectors made while
// the fleet mounts start disarmed and are armed once it is placed, so faults
// hit steady state; mounts made by later migrations start armed.
func runFabric(stdout io.Writer, op arith.UnaryOp, width, monitorN, calcN, rounds int,
	thBalance float64, spec string, switches, tenants, workers, migrateEvery int, trace []uint64) error {
	fcfg := fabric.Config{
		Switches:      switches,
		SwitchEntries: calcN,
		Workers:       workers,
	}
	if migrateEvery > 0 {
		fcfg.Migration = fabric.MigrationConfig{Every: migrateEvery}
	}
	var injectors []*faults.Injector
	armed := false
	if spec != "" {
		prof, err := faults.ParseProfile(spec)
		if err != nil {
			return usagef("bad -faults spec: %v", err)
		}
		// ParseProfile validated prof, so MustNew cannot fail. Mounts run
		// one at a time (provisioning, then migrations after the switch
		// rounds), so the per-switch mount count is deterministic.
		mounts := make([]int64, switches)
		fcfg.WrapDriver = func(sw int, d controlplane.Driver) controlplane.Driver {
			p := prof
			p.Seed = prof.Seed + int64(sw)*101 + mounts[sw]*7919
			mounts[sw]++
			inj := faults.MustNew(p)
			inj.SetArmed(armed)
			injectors = append(injectors, inj)
			return inj.Wrap(d)
		}
	}
	f, err := fabric.New(fcfg)
	if err != nil {
		return err
	}

	// Two-pass placement: precount the ring so each switch's capacity is
	// split equally among the tenants landing there.
	ring, err := fabric.NewRing(switches, 0)
	if err != nil {
		return err
	}
	names := make([]string, tenants)
	counts := make([]int, switches)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
		counts[ring.Place(names[i])]++
	}
	for _, name := range names {
		c := core.DefaultConfig(width)
		c.MonitorEntries = monitorN
		c.ThBalance = thBalance
		c.CalcEntries = calcN / counts[ring.Place(name)]
		if c.CalcEntries < 1 {
			c.CalcEntries = 1
		}
		if _, err := f.AddUnary(name, c, op); err != nil {
			return err
		}
	}
	for _, inj := range injectors {
		inj.SetArmed(true)
	}
	armed = true

	faultNote := ""
	if spec != "" {
		faultNote = ", per-switch faults"
	}
	tbl := stats.NewTable(
		fmt.Sprintf("Fabric replay for %v (%d switches x %d tenants, %d samples, %d rounds%s)",
			op, switches, tenants, len(trace), rounds, faultNote),
		"round", "samples", "round delay", "occupied", "degraded", "migrations")

	sr := netsim.NewShardedReplay(switches, 256)
	scratch := make([]fabric.IngestScratch, workers)
	var snap []int
	route := func(p uint64) int { return snap[p>>32] }
	stream := make([]uint64, 0, (len(trace)+rounds-1)/rounds)
	ctx := context.Background()
	chunk := (len(trace) + rounds - 1) / rounds
	for start, round := 0, 1; start < len(trace); start, round = start+chunk, round+1 {
		end := min(start+chunk, len(trace))
		stream = stream[:0]
		for i, v := range trace[start:end] {
			stream = append(stream, fabric.Pack((start+i)%tenants, v))
		}
		snap = f.RouteSnapshot(snap)
		sr.Replay(workers, stream, route, func(w, shard int, batch []uint64) {
			f.ObserveEvalPacked(batch, &scratch[w], nil)
		})
		rep, err := f.SyncAll(ctx)
		if err != nil {
			return err
		}
		occupied, degraded := 0, 0
		for _, sw := range rep.Switches {
			if sw.Tenants > 0 {
				occupied++
			}
			degraded += sw.Degraded
		}
		mig := "-"
		if len(rep.Migrations) > 0 {
			parts := make([]string, len(rep.Migrations))
			for i, m := range rep.Migrations {
				parts[i] = fmt.Sprintf("%s sw%d->sw%d (%d->%d entries)",
					m.Tenant, m.From, m.To, m.OldBudget, m.NewBudget)
			}
			mig = strings.Join(parts, "; ")
		}
		tbl.AddF(round, end-start, rep.MaxDelay, occupied, degraded, mig)
	}
	fmt.Fprintln(stdout, tbl.String())

	place, budgets := f.Placement(), f.Budgets()
	occupied := make(map[int]bool, switches)
	for _, sw := range place {
		occupied[sw] = true
	}
	pt := stats.NewTable(
		fmt.Sprintf("Final placement (%d of %d switches occupied)", len(occupied), switches),
		"tenant", "switch", "entries")
	for _, name := range names {
		pt.AddF(name, fmt.Sprintf("sw%02d", place[name]), budgets[name])
	}
	fmt.Fprintln(stdout, pt.String())

	if injectors != nil {
		var writeFails, outageOps, ackDrops uint64
		var injected time.Duration
		for _, inj := range injectors {
			st := inj.Stats()
			writeFails += st.WriteFailures
			outageOps += st.OutageOps
			ackDrops += st.AckDrops
			injected += st.Injected
		}
		fmt.Fprintf(stdout,
			"injected across %d switch drivers: %d write failures, %d outage ops, %d ack drops, %v latency\n",
			switches, writeFails, outageOps, ackDrops, injected)
	}
	return nil
}

func readTrace(stdin io.Reader, inline string) ([]uint64, error) {
	var fields []string
	if inline != "" {
		fields = strings.Split(inline, ",")
	} else {
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			fields = append(fields, strings.Fields(sc.Text())...)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	out := make([]uint64, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad trace value %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
