// Command adasim runs a packet-level network simulation scenario with a
// selectable topology, transport, and in-network application, printing
// flow-completion and port statistics.
//
// Usage:
//
//	adasim -topo leafspine -transport dctcp -app nimble -load 0.4 -duration 20ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/ada-repro/ada/internal/apps"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adasim", flag.ContinueOnError)
	var (
		topoName  = fs.String("topo", "leafspine", "topology: leafspine, fattree, dumbbell, star")
		transport = fs.String("transport", "dctcp", "transport: reno, cubic, dctcp, rcp, xcp")
		app       = fs.String("app", "none", "in-network app: none, nimble, nimble-ada, rcp-ada")
		spines    = fs.Int("spines", 2, "spine count (leafspine)")
		leaves    = fs.Int("leaves", 4, "leaf count (leafspine)")
		hostsPer  = fs.Int("hosts-per-leaf", 4, "hosts per leaf (leafspine)")
		hosts     = fs.Int("hosts", 8, "host count (dumbbell: per side, star: total)")
		rateGbps  = fs.Float64("rate", 10, "link rate in Gbps")
		load      = fs.Float64("load", 0.4, "offered load fraction")
		duration  = fs.Duration("duration", 20*time.Millisecond, "flow arrival window")
		limitGbps = fs.Uint64("limit", 9, "nimble rate limit in Gbps")
		seed      = fs.Int64("seed", 1, "workload seed")
		ecnKB     = fs.Int("ecn-kb", 30, "ECN threshold in KB (0 disables)")
		arity     = fs.Int("k", 4, "fat-tree arity (fattree topology)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rateBps := *rateGbps * 1e9
	var topo *netsim.Topology
	var nHosts int
	switch *topoName {
	case "fattree":
		cfg := netsim.FatTreeConfig{K: *arity, LinkRateBps: rateBps, LinkDelay: netsim.Microsecond}
		var err error
		topo, err = netsim.BuildFatTree(cfg)
		if err != nil {
			return err
		}
		nHosts = cfg.Hosts()
	case "leafspine":
		cfg := netsim.LeafSpineConfig{
			Spines: *spines, Leaves: *leaves, HostsPerLeaf: *hostsPer,
			LinkRateBps: rateBps, LinkDelay: netsim.Microsecond,
		}
		topo = netsim.BuildLeafSpine(cfg)
		nHosts = cfg.Hosts()
	case "dumbbell":
		topo = netsim.BuildDumbbell(netsim.DumbbellConfig{
			HostsPerSide: *hosts, AccessRateBps: rateBps,
			BottleneckRateBps: rateBps, LinkDelay: netsim.Microsecond,
		})
		nHosts = 2 * *hosts
	case "star":
		topo = netsim.BuildStar(netsim.StarConfig{
			Hosts: *hosts, LinkRateBps: rateBps, LinkDelay: netsim.Microsecond,
		})
		nHosts = *hosts
	default:
		return fmt.Errorf("unknown topology %q", *topoName)
	}
	if *ecnKB > 0 {
		topo.SetECNThreshold(*ecnKB * 1024)
	}
	net := topo.Net
	simDuration := netsim.Time(duration.Nanoseconds()) * netsim.Nanosecond

	var factory netsim.TransportFactory
	switch *transport {
	case "reno":
		factory = netsim.NewWindowTransport(netsim.Reno)
	case "cubic":
		factory = netsim.NewWindowTransport(netsim.Cubic)
	case "dctcp":
		factory = netsim.NewWindowTransport(netsim.DCTCP)
	case "rcp":
		factory = netsim.NewRCPTransport(rateBps)
	case "xcp":
		factory = netsim.NewXCPTransport()
	default:
		return fmt.Errorf("unknown transport %q", *transport)
	}

	switch *app {
	case "none":
	case "nimble", "nimble-ada":
		var a netsim.Arithmetic = netsim.IdealArith{}
		if *app == "nimble-ada" {
			rate := core.DefaultConfig(8)
			rate.CalcEntries = 2 // × 76 sig-bits ΔT entries
			ada, err := apps.NewADARateMultiplier(rate, 20, 2)
			if err != nil {
				return err
			}
			ada.ScheduleSync(net.Sim, 500*netsim.Microsecond)
			a = ada
		}
		for _, ports := range topo.DownPorts {
			for _, p := range ports {
				nim, err := apps.NewNimble(a, *limitGbps, 400*1024)
				if err != nil {
					return err
				}
				nim.ECNThresholdBytes = 30 * 1024
				p.Filter = nim
			}
		}
	case "rcp-ada":
		ada, err := apps.NewADARCPSites(uint64(rateBps/1e6), 128, 12)
		if err != nil {
			return err
		}
		ada.ScheduleSync(net.Sim, 500*netsim.Microsecond)
		for _, p := range topo.AllSwitchPorts() {
			netsim.AttachRCPSites(net.Sim, p, ada.Sites(), 28*netsim.Microsecond)
		}
	default:
		return fmt.Errorf("unknown app %q", *app)
	}
	if *transport == "rcp" && *app == "none" {
		for _, p := range topo.AllSwitchPorts() {
			netsim.AttachRCP(net.Sim, p, netsim.IdealArith{}, 28*netsim.Microsecond)
		}
	}
	if *transport == "xcp" {
		for _, p := range topo.AllSwitchPorts() {
			netsim.AttachXCP(net.Sim, p, netsim.UniformXCPSites(netsim.IdealArith{}), 28*netsim.Microsecond)
		}
	}

	wl := netsim.DefaultWorkload(*load, simDuration, *seed)
	flows := netsim.GenerateFlows(net, nHosts, rateBps, wl)
	if len(flows) == 0 {
		return fmt.Errorf("no flows generated (check -load and -duration)")
	}
	if err := netsim.StartAll(net, flows, factory); err != nil {
		return err
	}
	net.Sim.Run(simDuration * 5)

	short := netsim.CollectFCT(net.Flows(), netsim.ShortFlows(wl.ShortMax))
	long := netsim.CollectFCT(net.Flows(), netsim.LongFlows(wl.ShortMax))
	t := stats.NewTable(
		fmt.Sprintf("adasim: %s/%s/%s, %d hosts, load %.0f%%, %d flows, %d events",
			*topoName, *transport, *app, nHosts, *load*100, len(flows), net.Sim.Processed),
		"class", "done", "unfinished", "mean FCT", "median", "p99")
	t.AddF("short", short.N, short.Unfinished, short.Mean.String(), short.Median.String(), short.P99.String())
	t.AddF("long", long.N, long.Unfinished, long.Mean.String(), long.Median.String(), long.P99.String())
	fmt.Println(t.String())
	return nil
}
