package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ting/internal/cell"
	"ting/internal/link"
)

// ErrInjectedReset marks a link torn down by fault injection; callers can
// distinguish injected failures from organic ones with errors.Is.
var ErrInjectedReset = errors.New("faults: injected link reset")

// ErrDialRefused marks a dial refused by fault injection.
var ErrDialRefused = errors.New("faults: injected dial failure")

// WrapLink applies the plan's fault rule for from → to onto a link. A link
// with no active rule on a plan with no relay schedules is returned
// unchanged. Faults act on the send path: drops discard the cell after
// reporting success (the sender cannot tell, exactly like a lost datagram
// under reliable-looking buffering), stalls delay it, resets close the link
// so both peers observe failure. While either endpoint relay is Down, every
// send resets.
func (p *Plan) WrapLink(inner link.Link, from, to string) link.Link {
	f := p.LinkFor(from, to)
	if !f.active() && !p.hasRelayFaults() {
		return inner
	}
	return &faultLink{
		inner: inner,
		plan:  p,
		from:  from,
		to:    to,
		f:     f,
		rng:   p.rngFor(from, to),
	}
}

func (p *Plan) hasRelayFaults() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.relays) > 0 || len(p.crashed) > 0
}

type faultLink struct {
	inner link.Link
	plan  *Plan
	from  string
	to    string
	f     LinkFaults

	mu    sync.Mutex // guards rng and sends
	rng   *rand.Rand
	sends int
}

func (l *faultLink) Send(c *cell.Cell) error {
	if l.plan.Down(l.to) || l.plan.Down(l.from) {
		l.plan.metrics().resets.Inc()
		l.inner.Close()
		return fmt.Errorf("faults: relay down on link %s->%s: %w", l.from, l.to, ErrInjectedReset)
	}

	l.mu.Lock()
	l.sends++
	reset := l.f.ResetAfter > 0 && l.sends >= l.f.ResetAfter
	var drop, stall bool
	if !reset && (l.f.DropProb > 0 || l.f.StallProb > 0) {
		switch u := l.rng.Float64(); {
		case u < l.f.DropProb:
			drop = true
		case u < l.f.DropProb+l.f.StallProb:
			stall = true
		}
	}
	l.mu.Unlock()

	switch {
	case reset:
		l.plan.metrics().resets.Inc()
		l.inner.Close()
		return fmt.Errorf("faults: link %s->%s: %w", l.from, l.to, ErrInjectedReset)
	case drop:
		l.plan.metrics().drops.Inc()
		return nil
	case stall && l.f.Stall > 0:
		l.plan.metrics().stalls.Inc()
		time.Sleep(l.f.Stall)
	}
	return l.inner.Send(c)
}

func (l *faultLink) Recv(c *cell.Cell) error { return l.inner.Recv(c) }
func (l *faultLink) Close() error            { return l.inner.Close() }
func (l *faultLink) RemoteAddr() string      { return l.inner.RemoteAddr() }

// WrapDialer applies the plan to every link a dialer opens. from names the
// dialing node; nameOf maps dialed addresses to relay names for rule lookup
// (nil means addresses already are names, as on a PipeNet).
func (p *Plan) WrapDialer(inner link.Dialer, from string, nameOf func(addr string) string) link.Dialer {
	return link.DialerFunc(func(addr string) (link.Link, error) {
		to := addr
		if nameOf != nil {
			to = nameOf(addr)
		}
		if p.Down(to) {
			p.metrics().dialRefused.Inc()
			return nil, fmt.Errorf("faults: relay %s down: %w", to, ErrDialRefused)
		}
		if f := p.LinkFor(from, to); f.DialFailProb > 0 {
			if p.dialRoll(from, to) < f.DialFailProb {
				p.metrics().dialRefused.Inc()
				return nil, fmt.Errorf("faults: dial %s->%s: %w", from, to, ErrDialRefused)
			}
		}
		lk, err := inner.Dial(addr)
		if err != nil {
			return nil, err
		}
		return p.WrapLink(lk, from, to), nil
	})
}

// dialRoll draws from the shared per-directed-edge dial RNG, so repeated
// dials on the same edge consume one reproducible stream.
func (p *Plan) dialRoll(from, to string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dialRngs == nil {
		p.dialRngs = make(map[[2]string]*rand.Rand)
	}
	key := [2]string{from, to}
	r, ok := p.dialRngs[key]
	if !ok {
		r = p.rngFor(from+"/dial", to)
		p.dialRngs[key] = r
	}
	return r.Float64()
}
