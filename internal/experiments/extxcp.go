package experiments

import (
	"github.com/ada-repro/ada/internal/apps"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/stats"
)

// ExtXCPConfig parameterises the XCP extension experiment. XCP is not in
// the paper's evaluation but heads its Table I motivation (4 floating-point
// operations per control decision with error propagation); this experiment
// applies the Fig 10 methodology to it: short-flow FCT with exact router
// arithmetic vs ADA TCAM arithmetic.
type ExtXCPConfig struct {
	// Fabric sizes the leaf-spine topology.
	Fabric netsim.LeafSpineConfig
	// Load is the offered load fraction.
	Load float64
	// Duration is the flow arrival window.
	Duration netsim.Time
	// Drain is extra completion time.
	Drain netsim.Time
	// SyncEvery is the ADA control-round period.
	SyncEvery netsim.Time
	// Seed drives the workload.
	Seed int64
}

// DefaultExtXCPConfig returns a seconds-scale configuration.
func DefaultExtXCPConfig() ExtXCPConfig {
	return ExtXCPConfig{
		Fabric: netsim.LeafSpineConfig{
			Spines: 2, Leaves: 4, HostsPerLeaf: 4,
			LinkRateBps: 10e9, LinkDelay: netsim.Microsecond,
		},
		Load:      0.4,
		Duration:  15 * netsim.Millisecond,
		Drain:     60 * netsim.Millisecond,
		SyncEvery: 500 * netsim.Microsecond,
		Seed:      13,
	}
}

// ExtXCPRow is one arithmetic variant's result.
type ExtXCPRow struct {
	// Variant is "ideal" or "ada".
	Variant string
	// ShortFCT summarises short-flow completion times.
	ShortFCT netsim.FCTStats
	// ADAEntries is the adaptive TCAM footprint (0 for ideal).
	ADAEntries int
}

// RunExtXCP runs XCP across the fabric with exact and ADA arithmetic.
func RunExtXCP(cfg ExtXCPConfig) ([]ExtXCPRow, error) {
	var rows []ExtXCPRow
	for _, variant := range []string{"ideal", "ada"} {
		topo := netsim.BuildLeafSpine(cfg.Fabric)
		net := topo.Net
		sim := net.Sim

		sites := netsim.UniformXCPSites(netsim.IdealArith{})
		var ada *apps.ADAXCPSites
		if variant == "ada" {
			a, err := apps.NewADAXCPSites(128, 12)
			if err != nil {
				return nil, err
			}
			a.ScheduleSync(sim, cfg.SyncEvery)
			sites = a.Sites()
			ada = a
		}
		d := 8*cfg.Fabric.LinkDelay + 20*netsim.Microsecond
		for _, p := range topo.AllSwitchPorts() {
			netsim.AttachXCP(sim, p, sites, d)
		}

		wl := netsim.DefaultWorkload(cfg.Load, cfg.Duration, cfg.Seed)
		flows := netsim.GenerateFlows(net, cfg.Fabric.Hosts(), cfg.Fabric.LinkRateBps, wl)
		if err := netsim.StartAll(net, flows, netsim.NewXCPTransport()); err != nil {
			return nil, err
		}
		sim.Run(cfg.Duration + cfg.Drain)

		row := ExtXCPRow{
			Variant:  variant,
			ShortFCT: netsim.CollectFCT(net.Flows(), netsim.ShortFlows(wl.ShortMax)),
		}
		if ada != nil {
			row.ADAEntries = ada.TotalEntries()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderExtXCP formats the rows.
func RenderExtXCP(rows []ExtXCPRow) string {
	t := stats.NewTable("Extension: XCP (Table I's heaviest arithmetic consumer) with ideal vs ADA arithmetic",
		"arithmetic", "short flows", "unfinished", "mean FCT", "p99 FCT", "ADA entries")
	for _, r := range rows {
		t.AddF(r.Variant, r.ShortFCT.N, r.ShortFCT.Unfinished,
			r.ShortFCT.Mean.String(), r.ShortFCT.P99.String(), r.ADAEntries)
	}
	return t.String()
}
