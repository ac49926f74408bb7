package experiments

import (
	"fmt"

	"github.com/ada-repro/ada/internal/apps"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/stats"
)

// Fig10Config parameterises the large-scale FCT study (§V-C): a leaf-spine
// datacenter running TCP (baseline), RCP, and Nimble, each with ideal
// (exact) arithmetic and with ADA, across network loads.
type Fig10Config struct {
	// Fabric sizes the topology (paper: 10 spine × 20 leaf × 400 hosts at
	// 100 Gbps; the default is scaled for seconds-level runs).
	Fabric netsim.LeafSpineConfig
	// Loads are the offered load fractions swept (paper: 0.2–0.8).
	Loads []float64
	// Duration is the flow-arrival window.
	Duration netsim.Time
	// Drain is extra time allowed for flows to finish.
	Drain netsim.Time
	// IncastFanIn enables the paper's incast component.
	IncastFanIn int
	// ECNThresholdBytes is the DCTCP marking threshold for Nimble runs.
	ECNThresholdBytes int
	// SyncEvery is the ADA control-round period.
	SyncEvery netsim.Time
	// Seed drives the workload.
	Seed int64
}

// DefaultFig10Config returns a seconds-scale configuration preserving the
// paper's traffic mix.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Fabric: netsim.LeafSpineConfig{
			Spines: 2, Leaves: 4, HostsPerLeaf: 4,
			LinkRateBps: 10e9, LinkDelay: netsim.Microsecond,
		},
		Loads:             []float64{0.2, 0.4, 0.6, 0.8},
		Duration:          15 * netsim.Millisecond,
		Drain:             60 * netsim.Millisecond,
		IncastFanIn:       8,
		ECNThresholdBytes: 30 * 1024,
		SyncEvery:         500 * netsim.Microsecond,
		Seed:              10,
	}
}

// Fig10Scheme names one system under test.
type Fig10Scheme string

// Fig10 schemes.
const (
	// Fig10TCP is the plain TCP (Reno) baseline.
	Fig10TCP Fig10Scheme = "tcp"
	// Fig10RCPIdeal is RCP with exact router arithmetic.
	Fig10RCPIdeal Fig10Scheme = "rcp-ideal"
	// Fig10RCPADA is RCP with ADA TCAM arithmetic.
	Fig10RCPADA Fig10Scheme = "rcp-ada"
	// Fig10NimbleIdeal is DCTCP + per-port Nimble with exact arithmetic.
	Fig10NimbleIdeal Fig10Scheme = "nimble-ideal"
	// Fig10NimbleADA is DCTCP + per-port Nimble with ADA arithmetic.
	Fig10NimbleADA Fig10Scheme = "nimble-ada"
)

// Fig10Schemes returns the evaluation order.
func Fig10Schemes() []Fig10Scheme {
	return []Fig10Scheme{Fig10TCP, Fig10RCPIdeal, Fig10RCPADA, Fig10NimbleIdeal, Fig10NimbleADA}
}

// Fig10Row is one (load, scheme) result.
type Fig10Row struct {
	// Load is the offered load fraction.
	Load float64
	// Scheme identifies the system.
	Scheme Fig10Scheme
	// ShortFCT summarises short-flow completion times.
	ShortFCT netsim.FCTStats
}

// RunFig10 sweeps loads × schemes and reports short-flow FCT.
func RunFig10(cfg Fig10Config) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, load := range cfg.Loads {
		for _, scheme := range Fig10Schemes() {
			st, err := runFig10Cell(cfg, load, scheme)
			if err != nil {
				return nil, fmt.Errorf("fig10 load %.1f %s: %w", load, scheme, err)
			}
			rows = append(rows, Fig10Row{Load: load, Scheme: scheme, ShortFCT: st})
		}
	}
	return rows, nil
}

func runFig10Cell(cfg Fig10Config, load float64, scheme Fig10Scheme) (netsim.FCTStats, error) {
	topo := netsim.BuildLeafSpine(cfg.Fabric)
	net := topo.Net
	sim := net.Sim

	wl := netsim.DefaultWorkload(load, cfg.Duration, cfg.Seed)
	wl.IncastFanIn = cfg.IncastFanIn
	if cfg.IncastFanIn > 1 {
		wl.IncastEvery = cfg.Duration / 4
	}
	flows := netsim.GenerateFlows(net, cfg.Fabric.Hosts(), cfg.Fabric.LinkRateBps, wl)

	var factory netsim.TransportFactory
	switch scheme {
	case Fig10TCP:
		factory = netsim.NewWindowTransport(netsim.Reno)

	case Fig10RCPIdeal, Fig10RCPADA:
		sites := netsim.UniformRCPSites(netsim.IdealArith{})
		if scheme == Fig10RCPADA {
			// One adaptive TCAM table per RCP arithmetic statement, the P4
			// layout; widths derive from each site's operand range.
			ada, err := apps.NewADARCPSites(uint64(cfg.Fabric.LinkRateBps/1e6), 128, 12)
			if err != nil {
				return netsim.FCTStats{}, err
			}
			ada.ScheduleSync(sim, cfg.SyncEvery)
			sites = ada.Sites()
		}
		// The RTT of the longest 4-hop path dominates the control interval.
		d := 8*cfg.Fabric.LinkDelay + 20*netsim.Microsecond
		for _, p := range topo.AllSwitchPorts() {
			netsim.AttachRCPSites(sim, p, sites, d)
		}
		factory = netsim.NewRCPTransport(cfg.Fabric.LinkRateBps)

	case Fig10NimbleIdeal, Fig10NimbleADA:
		topo.SetECNThreshold(cfg.ECNThresholdBytes)
		var a netsim.Arithmetic = netsim.IdealArith{}
		if scheme == Fig10NimbleADA {
			// The ADA(R) Nimble deployment: adaptive rate marginal plus a
			// sig-bits ΔT marginal wide enough for millisecond gaps.
			ada, err := apps.NewADARateMultiplier(adaRConfig(12), 20, 2)
			if err != nil {
				return netsim.FCTStats{}, err
			}
			ada.ScheduleSync(sim, cfg.SyncEvery)
			a = ada
		}
		// Per-port rate limiters just below line rate (the paper's 94 of
		// 100 Gbps, scaled).
		limit := uint64(cfg.Fabric.LinkRateBps * 0.94 / 1e9)
		for _, ports := range topo.DownPorts {
			for _, p := range ports {
				nim, err := apps.NewNimble(a, limit, 400*1024)
				if err != nil {
					return netsim.FCTStats{}, err
				}
				p.Filter = nim
			}
		}
		factory = netsim.NewWindowTransport(netsim.DCTCP)
	default:
		return netsim.FCTStats{}, fmt.Errorf("unknown scheme %q", scheme)
	}

	if err := netsim.StartAll(net, flows, factory); err != nil {
		return netsim.FCTStats{}, err
	}
	sim.Run(cfg.Duration + cfg.Drain)

	wlShortMax := wl.ShortMax
	return netsim.CollectFCT(net.Flows(), netsim.ShortFlows(wlShortMax)), nil
}

// RenderFig10 formats the rows.
func RenderFig10(rows []Fig10Row) string {
	t := stats.NewTable("Fig 10: short-flow FCT vs load (ADA should track the ideal variants)",
		"load", "scheme", "flows", "unfinished", "mean FCT", "p99 FCT")
	for _, r := range rows {
		t.AddF(fmt.Sprintf("%.0f%%", r.Load*100), string(r.Scheme),
			r.ShortFCT.N, r.ShortFCT.Unfinished,
			r.ShortFCT.Mean.String(), r.ShortFCT.P99.String())
	}
	return t.String()
}
