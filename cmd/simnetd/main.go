// Command simnetd serves a simulated IPv6 Internet over UDP: each
// datagram is one raw IPv6+ICMPv6 probe packet, answered byte-exactly as
// the simulated network would. It is the wire-level counterpart to the
// in-process transport — point the scent CLI (or any prober built on
// internal/zmap's UDP transport) at it. The serve loop is vectored
// (recvmmsg/sendmmsg via internal/netbatch) where the platform allows,
// but simulation semantics are strictly per-datagram: a world answers
// bit-identically whether probes arrive singly or in batches.
//
// Usage:
//
//	simnetd [-listen 127.0.0.1:4791] [-seed 42] [-world default|test|spec.json] [-timescale 0]
//
// -world names a built-in world (default or test) or a declarative
// WorldSpec JSON file (see DESIGN.md §11); for a spec file, -seed
// overrides the spec's seed only when given explicitly. timescale
// advances the simulated clock by that many virtual seconds per real
// second (0 freezes time; 86400 makes a real second a virtual day,
// letting a client watch prefix rotation live).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"

	"followscent/internal/simnet"
)

// options holds the daemon's flag values; simnetdFlags is the single
// source of truth the README docs-drift test checks against.
type options struct {
	listen    string
	seed      uint64
	world     string
	timescale float64
}

func simnetdFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "127.0.0.1:4791", "UDP listen address")
	fs.Uint64Var(&o.seed, "seed", 42, "world seed (for a spec file, overrides the spec's seed only when set explicitly)")
	fs.StringVar(&o.world, "world", "default", "world to serve: default, test, or a WorldSpec JSON file")
	fs.Float64Var(&o.timescale, "timescale", 0, "virtual seconds per real second (0 = frozen)")
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("simnetd: ")

	fs := flag.NewFlagSet("simnetd", flag.ExitOnError)
	o := simnetdFlags(fs)
	_ = fs.Parse(os.Args[1:])

	var w *simnet.World
	switch o.world {
	case "default":
		w = simnet.DefaultWorld(o.seed)
	case "test":
		w = simnet.TestWorld(o.seed)
	default:
		ws, err := simnet.LoadWorldSpecFile(o.world)
		if err != nil {
			log.Fatalf("loading world: %v", err)
		}
		seedSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		if seedSet {
			ws.Seed = o.seed
		}
		w, err = simnet.Build(ws)
		if err != nil {
			log.Fatalf("building world: %v", err)
		}
	}

	addr, err := net.ResolveUDPAddr("udp", o.listen)
	if err != nil {
		log.Fatalf("resolving %q: %v", o.listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		log.Fatalf("listening: %v", err)
	}
	defer conn.Close()

	providers := len(w.Providers())
	cpes := 0
	for _, p := range w.Providers() {
		for _, pool := range p.Pools {
			cpes += len(pool.CPEs())
		}
	}
	fmt.Printf("simnetd: serving %s world (seed %d): %d ASes, %d CPE on %s (timescale %gx)\n",
		o.world, w.Seed(), providers, cpes, conn.LocalAddr(), o.timescale)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := w.ServeUDP(ctx, conn, o.timescale); err != nil {
		log.Fatalf("serving: %v", err)
	}
	probes, resps := w.Stats()
	fmt.Printf("simnetd: served %d probe datagrams, answered %d\n", probes, resps)
}
