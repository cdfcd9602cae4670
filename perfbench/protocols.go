package main

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"dynamips/internal/bng/stripe"
	"dynamips/internal/dhcp4"
	"dynamips/internal/dhcp6"
	"dynamips/internal/radius"
)

// perOpNS times fn under a span and returns nanoseconds per operation.
func perOpNS(tr *tracer, name string, ops int, fn func() error) (float64, error) {
	id := tr.begin(name, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	tr.end(id)
	if ops == 0 {
		return 0, err
	}
	return float64(d.Nanoseconds()) / float64(ops), err
}

// stripeOps copies every session of snap into a fresh table with the
// daemon's stripe width, then reads each back, timing Put and Get.
func stripeOps(snap []stripe.Session, shardBits int, tr *tracer) (putNS, getNS float64, err error) {
	tbl, err := stripe.New(shardBits)
	if err != nil {
		return 0, 0, err
	}
	putNS, _ = perOpNS(tr, "stripe.put", len(snap), func() error {
		for _, s := range snap {
			tbl.Put(s)
		}
		return nil
	})
	getNS, err = perOpNS(tr, "stripe.get", len(snap), func() error {
		for _, s := range snap {
			if got, ok := tbl.Get(s.Key); !ok || got != s {
				return fmt.Errorf("stripe: session %#x did not read back", s.Key)
			}
		}
		return nil
	})
	return putNS, getNS, err
}

// protocolOps times Server.Handle of each protocol server the bng
// engine drives, on n first-time clients each: a DHCPv4 DISCOVER and
// REQUEST, a DHCPv6 SOLICIT and REQUEST, and a RADIUS Access-Request.
// The pools and lease settings are those of the default config's groups.
func protocolOps(n int, tr *tracer) (d4NS, d6NS, radNS float64, err error) {
	if d4NS, err = dhcp4Ops(n, tr); err != nil {
		return 0, 0, 0, err
	}
	if d6NS, err = dhcp6Ops(n, tr); err != nil {
		return 0, 0, 0, err
	}
	radNS, err = radiusOps(n, tr)
	return d4NS, d6NS, radNS, err
}

func clientMAC(i int) [6]byte {
	var hw [6]byte
	binary.BigEndian.PutUint32(hw[2:], uint32(i))
	hw[0] = 0x02 // locally administered
	return hw
}

func dhcp4Ops(n int, tr *tracer) (float64, error) {
	clock := dhcp4.ClockFunc(func() int64 { return 0 })
	srv := dhcp4.NewServer(dhcp4.ServerConfig{
		Pools:        []netip.Prefix{netip.MustParsePrefix("10.128.0.0/12")},
		LeaseSeconds: 86400,
		Sticky:       true,
		ServerID:     netip.MustParseAddr("10.128.0.1"),
	}, clock)
	discovers := make([]*dhcp4.Message, n)
	for i := range discovers {
		discovers[i] = dhcp4.NewMessage(dhcp4.Discover, uint32(i), dhcp4.HWAddr(clientMAC(i)))
	}
	offered := make([]netip.Addr, n)
	ns1, err := perOpNS(tr, "dhcp4.handle", n, func() error {
		for i, m := range discovers {
			offer, err := srv.Handle(m)
			if err != nil {
				return fmt.Errorf("dhcp4 discover: %w", err)
			}
			offered[i] = offer.YIAddr
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	requests := make([]*dhcp4.Message, n)
	for i := range requests {
		requests[i] = dhcp4.NewMessage(dhcp4.Request, uint32(i), dhcp4.HWAddr(clientMAC(i)))
		requests[i].SetAddrOption(dhcp4.OptRequestedIP, offered[i])
	}
	ns2, err := perOpNS(tr, "dhcp4.handle", n, func() error {
		for _, m := range requests {
			ack, err := srv.Handle(m)
			if err != nil {
				return fmt.Errorf("dhcp4 request: %w", err)
			}
			if ack.Type() != dhcp4.ACK {
				return fmt.Errorf("dhcp4 request answered %v", ack.Type())
			}
		}
		return nil
	})
	return (ns1 + ns2) / 2, err
}

func dhcp6Ops(n int, tr *tracer) (float64, error) {
	clock := dhcp6.ClockFunc(func() int64 { return 0 })
	srv := dhcp6.NewServer(dhcp6.ServerConfig{
		Pools:        []netip.Prefix{netip.MustParsePrefix("2001:db8:8000::/34")},
		DelegatedLen: 56,
		ValidSeconds: 86400,
		Stride:       2557,
	}, clock)
	solicits := make([]*dhcp6.Message, n)
	for i := range solicits {
		solicits[i] = dhcp6.NewMessage(dhcp6.Solicit, uint32(i), dhcp6.DUIDLL(clientMAC(i)))
	}
	adverts := make([]*dhcp6.Message, n)
	ns1, err := perOpNS(tr, "dhcp6.handle", n, func() error {
		for i, m := range solicits {
			adv, err := srv.Handle(m)
			if err != nil {
				return fmt.Errorf("dhcp6 solicit: %w", err)
			}
			if len(adv.IAPDs) == 0 || len(adv.IAPDs[0].Prefixes) == 0 {
				return fmt.Errorf("dhcp6 solicit %d advertised no prefix", i)
			}
			adverts[i] = adv
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	requests := make([]*dhcp6.Message, n)
	for i, adv := range adverts {
		req := dhcp6.NewMessage(dhcp6.Request, uint32(i), dhcp6.DUIDLL(clientMAC(i)))
		req.ServerID = adv.ServerID
		req.IAPDs = []dhcp6.IAPD{{IAID: adv.IAPDs[0].IAID, Prefixes: adv.IAPDs[0].Prefixes}}
		requests[i] = req
	}
	ns2, err := perOpNS(tr, "dhcp6.handle", n, func() error {
		for i, m := range requests {
			rep, err := srv.Handle(m)
			if err != nil {
				return fmt.Errorf("dhcp6 request: %w", err)
			}
			if len(rep.IAPDs) == 0 || len(rep.IAPDs[0].Prefixes) == 0 {
				return fmt.Errorf("dhcp6 request %d delegated no prefix", i)
			}
		}
		return nil
	})
	return (ns1 + ns2) / 2, err
}

func radiusOps(n int, tr *tracer) (float64, error) {
	srv := radius.NewServer(radius.ServerConfig{
		Pools4:         []netip.Prefix{netip.MustParsePrefix("10.0.0.0/9")},
		Pools6:         []netip.Prefix{netip.MustParsePrefix("2001:db8::/34")},
		DelegatedLen6:  56,
		SessionTimeout: 14400,
		Stride:         257,
		Secret:         []byte("perfbench"),
	})
	reqs := make([]*radius.Packet, n)
	for i := range reqs {
		p := radius.New(radius.AccessRequest, byte(i))
		binary.BigEndian.PutUint64(p.Authenticator[:], uint64(i))
		p.AddString(radius.AttrUserName, fmt.Sprintf("sub%d", i))
		reqs[i] = p
	}
	return perOpNS(tr, "radius.handle", n, func() error {
		for i, p := range reqs {
			rep, err := srv.Handle(p, 0)
			if err != nil {
				return fmt.Errorf("radius access-request: %w", err)
			}
			if rep == nil || rep.Code != radius.AccessAccept {
				return fmt.Errorf("radius access-request %d not accepted", i)
			}
		}
		return nil
	})
}
