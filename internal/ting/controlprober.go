package ting

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ting/internal/control"
)

// ControlProber drives Ting through a control port, the way the paper's
// Python client drove an unmodified Tor via Stem (§4.1): EXTENDCIRCUIT to
// build each circuit, the data port to attach an echo stream, CLOSECIRCUIT
// when done.
type ControlProber struct {
	// Conn is an authenticated control connection. Several probers may
	// share it: each request waits for the one before it to be answered.
	// Required.
	Conn *control.Conn
	// DataAddr is the onion proxy's data-port address. Required.
	DataAddr string
	// Target is the echo destination. Required.
	Target string
	// ToMs converts wall-clock durations to milliseconds; nil means plain
	// milliseconds.
	ToMs func(time.Duration) float64
}

// SampleCircuit implements CircuitProber over the control protocol.
// Cancellation is checked between protocol steps, and the data connection
// is tied to ctx: when ctx ends, a stalled attach or probe returns at once
// with ctx's error, so a pair timeout cuts a stalled series and a
// cancelled scan releases its circuit and its control connection promptly.
func (p *ControlProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	if p.Conn == nil || p.DataAddr == "" || p.Target == "" {
		return nil, errors.New("ting: control prober misconfigured")
	}
	if n <= 0 {
		return nil, errors.New("ting: sample count must be positive")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	circID, err := p.Conn.ExtendCircuit(path)
	if err != nil {
		return nil, fmt.Errorf("ting: extend circuit: %w", err)
	}
	defer p.Conn.CloseCircuit(circID)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn, err := control.DialStream(ctx, p.DataAddr, circID, p.Target)
	if err != nil {
		return nil, fmt.Errorf("ting: attach stream: %w", err)
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })()

	out := make([]float64, n)
	if err := probeSeries(ctx, conn, out, p.ToMs); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return out, nil
}
