// Ratelimiter: the paper's Fig 8 scenario as a runnable example. Sixteen
// DCTCP connections push through a Nimble in-network rate limiter whose
// bytes_enqueued = rate × ΔT multiplication runs on a TCAM. Mid-run the
// operator cuts the limit from 24 to 12 Gbps:
//
//   - with a frozen ("static") population, the stale table answers the new
//     rate with garbage and the limiter stops limiting;
//
//   - with ADA, the monitoring TCAM sees the new operating point and the
//     control plane repopulates within a few rounds.
//
//     go run ./examples/ratelimiter
package main

import (
	"fmt"
	"log"

	"github.com/ada-repro/ada/internal/apps"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

type variant struct {
	name     string
	adaptive bool // keep syncing after the rate change
	useADA   bool // TCAM-backed at all (false = exact arithmetic)
}

func run() error {
	const (
		linkRate    = 40e9
		initialRate = 24 // Gbps
		changedRate = 12
		changeAt    = 3 * netsim.Millisecond
		duration    = 9 * netsim.Millisecond
	)
	variants := []variant{
		{name: "ideal (exact multiply)", useADA: false},
		{name: "static TCAM (no update)", useADA: true, adaptive: false},
		{name: "ADA (adaptive update)", useADA: true, adaptive: true},
	}
	for _, v := range variants {
		topo := netsim.BuildStar(netsim.StarConfig{
			Hosts: 2, LinkRateBps: linkRate, LinkDelay: netsim.Microsecond,
		})
		topo.SetECNThreshold(60 * 1024)
		net := topo.Net
		sim := net.Sim

		var mul netsim.Arithmetic = netsim.IdealArith{}
		var ada *apps.ADARateMultiplier
		if v.useADA {
			// 8-bit rate keys with 2 adaptive entries × 76 sig-bits ΔT
			// entries of 20 bits.
			rate := core.DefaultConfig(8)
			rate.CalcEntries = 2
			a, err := apps.NewADARateMultiplier(rate, 20, 2)
			if err != nil {
				return err
			}
			ada = a
			mul = a
		}
		nim, err := apps.NewNimble(mul, initialRate, 400*1024)
		if err != nil {
			return err
		}
		nim.ECNThresholdBytes = 30 * 1024
		topo.DownPorts[1][1].Filter = nim

		meter := &netsim.ThroughputMeter{Window: 500 * netsim.Microsecond}
		meter.Attach(sim, topo.DownPorts[1][1])

		size := int(linkRate * duration.Seconds() / 8 / 16)
		for i := 0; i < 16; i++ {
			f := net.AddFlow(&netsim.Flow{Src: 0, Dst: 1, Size: size, Start: 0})
			if err := net.StartFlow(f, netsim.NewWindowTransport(netsim.DCTCP)); err != nil {
				return err
			}
		}
		if ada != nil {
			var tick func()
			tick = func() {
				if !v.adaptive && sim.Now() >= changeAt {
					return // the "without ADA" case: controller goes silent
				}
				if _, err := ada.Sync(); err != nil {
					return
				}
				sim.After(250*netsim.Microsecond, tick)
			}
			sim.After(250*netsim.Microsecond, tick)
		}
		sim.Schedule(changeAt, func() { nim.SetRateGbps(changedRate) })
		sim.Run(duration)

		fmt.Printf("%s\n  throughput (Gbps per 0.5ms):", v.name)
		for i, bps := range meter.BpsSeries {
			if i%2 == 0 {
				fmt.Printf(" %.0f", bps/1e9)
			}
		}
		fmt.Printf("\n  limiter drops: %d\n\n", nim.Drops)
	}
	fmt.Println("The limit drops 24 → 12 Gbps at t=3ms. Ideal and ADA follow it;")
	fmt.Println("the static population does not (the paper's Fig 8).")
	return nil
}
