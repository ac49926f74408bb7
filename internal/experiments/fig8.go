package experiments

import (
	"fmt"

	"github.com/ada-repro/ada/internal/apps"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/stats"
)

// Fig8Config parameterises the Nimble rate-change experiment (§V-B1): 16
// DCTCP connections at line rate through a Nimble limiter set to 24 Gbps,
// cut to 12 Gbps mid-run. Without a control-plane TCAM update the stale
// population computes the drain with a huge error; with ADA the monitor
// detects the new operating point and repopulates within a few rounds.
type Fig8Config struct {
	// LinkRateBps is the access link speed.
	LinkRateBps float64
	// Flows is the parallel connection count (paper: 16 iperf3 streams).
	Flows int
	// InitialRateGbps and ChangedRateGbps are the limiter settings.
	InitialRateGbps, ChangedRateGbps uint64
	// ChangeAt is the rate-change instant (paper: 3 ms).
	ChangeAt netsim.Time
	// Duration is the run length.
	Duration netsim.Time
	// CalcEntries is the calculation budget (paper: 128).
	CalcEntries int
	// MonitorEntries is the monitoring budget (paper: 12).
	MonitorEntries int
	// SyncEvery is the ADA control-round period.
	SyncEvery netsim.Time
	// MeterWindow is the throughput sampling window.
	MeterWindow netsim.Time
}

// DefaultFig8Config returns the paper's setup scaled to milliseconds.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		LinkRateBps:     40e9,
		Flows:           16,
		InitialRateGbps: 24,
		ChangedRateGbps: 12,
		ChangeAt:        3 * netsim.Millisecond,
		Duration:        9 * netsim.Millisecond,
		CalcEntries:     128,
		MonitorEntries:  12,
		SyncEvery:       250 * netsim.Microsecond,
		MeterWindow:     250 * netsim.Microsecond,
	}
}

// Fig8Variant names a limiter arithmetic configuration.
type Fig8Variant string

// Fig8 variants.
const (
	// Fig8Ideal uses exact arithmetic (unlimited-TCAM baseline).
	Fig8Ideal Fig8Variant = "ideal"
	// Fig8Static trains the TCAM for the initial rate, then freezes it (the
	// paper's "Nimble without ADA": no control-plane update at the change).
	Fig8Static Fig8Variant = "static"
	// Fig8ADA keeps the ADA control loop running throughout.
	Fig8ADA Fig8Variant = "ada"
)

// Fig8Row is one variant's throughput behaviour.
type Fig8Row struct {
	// Variant identifies the arithmetic configuration.
	Variant Fig8Variant
	// Series is goodput (bits/s) per meter window.
	Series []float64
	// Phase1AvgGbps is mean goodput while the limit is the initial rate
	// (measured after ramp-up).
	Phase1AvgGbps float64
	// Phase2AvgGbps is mean goodput after the change (measured after a
	// settling window).
	Phase2AvgGbps float64
	// LimiterDrops counts packets the limiter rejected.
	LimiterDrops uint64
}

// RunFig8 runs the three variants and reports throughput before and after
// the rate change.
func RunFig8(cfg Fig8Config) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, variant := range []Fig8Variant{Fig8Ideal, Fig8Static, Fig8ADA} {
		row, err := runFig8Variant(cfg, variant)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", variant, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// adaRConfig is the ADA(R) rate variable of Fig 8 and Fig 10: 8-bit rate
// keys with 2 adaptive entries, crossed with the 76-entry sig-bits ΔT
// marginal.
func adaRConfig(monitorEntries int) core.Config {
	cfg := core.DefaultConfig(8)
	cfg.MonitorEntries = monitorEntries
	cfg.CalcEntries = 2
	return cfg
}

func runFig8Variant(cfg Fig8Config, variant Fig8Variant) (Fig8Row, error) {
	topo := netsim.BuildStar(netsim.StarConfig{
		Hosts:       2,
		LinkRateBps: cfg.LinkRateBps,
		LinkDelay:   netsim.Microsecond,
	})
	topo.SetECNThreshold(60 * 1024)
	net := topo.Net
	sim := net.Sim

	var arithImpl netsim.Arithmetic
	var ada *apps.ADARateMultiplier
	switch variant {
	case Fig8Ideal:
		arithImpl = netsim.IdealArith{}
	case Fig8Static, Fig8ADA:
		// The paper's ADA(R) deployment: adaptive rate marginal (monitored),
		// magnitude-logarithmic sig-bits ΔT marginal. 2 rate entries × 76 ΔT
		// entries ≈ the paper's 128-entry multiplication table.
		// ΔT key width 20 bits (≈1 ms): beyond that a gap fully drains the
		// 400 KB bucket at any plausible rate, so clamping is harmless.
		a, err := apps.NewADARateMultiplier(adaRConfig(cfg.MonitorEntries), 20, 2)
		if err != nil {
			return Fig8Row{}, err
		}
		ada = a
		arithImpl = a
	}

	nim, err := apps.NewNimble(arithImpl, cfg.InitialRateGbps, 400*1024)
	if err != nil {
		return Fig8Row{}, err
	}
	// DCTCP senders settle against ECN marks from the virtual buffer; the
	// hard drop at 400 KB is the backstop.
	nim.ECNThresholdBytes = 30 * 1024
	// The limiter guards the port toward the receiving host.
	downPort := topo.DownPorts[1][1]
	downPort.Filter = nim

	meter := &netsim.ThroughputMeter{Window: cfg.MeterWindow}
	meter.Attach(sim, downPort)

	// 16 parallel long-running DCTCP connections saturating the link.
	size := int(cfg.LinkRateBps * cfg.Duration.Seconds() / 8 / float64(cfg.Flows))
	for i := 0; i < cfg.Flows; i++ {
		f := net.AddFlow(&netsim.Flow{Src: 0, Dst: 1, Size: size, Start: 0})
		if err := net.StartFlow(f, netsim.NewWindowTransport(netsim.DCTCP)); err != nil {
			return Fig8Row{}, err
		}
	}

	// ADA control rounds: Fig8ADA syncs throughout; Fig8Static syncs only
	// before the change (that is exactly "no TCAM update from the control
	// plane" after the rate moves).
	if ada != nil {
		var tick func()
		tick = func() {
			if variant == Fig8Static && sim.Now() >= cfg.ChangeAt {
				return
			}
			if _, err := ada.Sync(); err != nil {
				return
			}
			sim.After(cfg.SyncEvery, tick)
		}
		sim.After(cfg.SyncEvery, tick)
	}

	// The operator cuts the limit mid-run.
	sim.Schedule(cfg.ChangeAt, func() { nim.SetRateGbps(cfg.ChangedRateGbps) })

	sim.Run(cfg.Duration)

	row := Fig8Row{Variant: variant, Series: meter.BpsSeries, LimiterDrops: nim.Drops}
	row.Phase1AvgGbps = meanWindow(meter.BpsSeries, cfg.MeterWindow,
		netsim.Millisecond, cfg.ChangeAt) / 1e9
	row.Phase2AvgGbps = meanWindow(meter.BpsSeries, cfg.MeterWindow,
		cfg.ChangeAt+2*netsim.Millisecond, cfg.Duration) / 1e9
	return row, nil
}

// meanWindow averages series samples whose window falls inside [from, to).
func meanWindow(series []float64, window, from, to netsim.Time) float64 {
	sum, n := 0.0, 0
	for i, v := range series {
		at := netsim.Time(i+1) * window
		if at >= from && at < to {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RenderFig8 formats the rows.
func RenderFig8(rows []Fig8Row) string {
	t := stats.NewTable("Fig 8: Nimble throughput across a 24→12 Gbps limit change",
		"variant", "phase1 avg", "phase2 avg (want ≈12G)", "limiter drops")
	for _, r := range rows {
		t.AddF(string(r.Variant),
			fmt.Sprintf("%.2fGbps", r.Phase1AvgGbps),
			fmt.Sprintf("%.2fGbps", r.Phase2AvgGbps),
			r.LimiterDrops)
	}
	return t.String()
}
