package cliflags

import (
	"flag"
	"time"

	"ting/internal/control"
	"ting/internal/ting"
	"ting/internal/tornet"
)

// Control is the control-port boot cmd/ting and cmd/tingd share: the seven
// flags that say where the onion proxy is and which of its relays are the
// measurer's own, the dial and authentication, and the measurers that
// probe through the session: one per worker, all sharing it.
type Control struct {
	Addr string // -control; empty when a command that makes it optional was not given it

	data     string  // -data
	password string  // -password
	w, z     string  // -w, -z
	target   string  // -target
	scale    float64 // -scale
}

// Register installs -control, -data, -password, -w, -z, -target and -scale
// on fs. The two commands differ in what -control defaults to and says
// (ting always measures through a control port, for tingd it is one source
// of three), so addr and usage are theirs; prefix goes before the other
// six usage strings.
func (c *Control) Register(fs *flag.FlagSet, addr, usage, prefix string) {
	fs.StringVar(&c.Addr, "control", addr, usage)
	fs.StringVar(&c.data, "data", "127.0.0.1:9052", prefix+"data port of the onion proxy")
	fs.StringVar(&c.password, "password", "", prefix+"control-port password")
	fs.StringVar(&c.w, "w", tornet.WName, prefix+"nickname of local relay w")
	fs.StringVar(&c.z, "z", tornet.ZName, prefix+"nickname of local relay z")
	fs.StringVar(&c.target, "target", tornet.EchoTarget, prefix+"echo destination name")
	fs.Float64Var(&c.scale, "scale", 1.0, prefix+"the network's time scale, to convert wall-clock to virtual ms")
}

// Dial opens the control session and authenticates.
func (c *Control) Dial() (*control.Conn, error) {
	conn, err := control.Dial(c.Addr)
	if err != nil {
		return nil, err
	}
	if err := conn.Authenticate(c.password); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// NewMeasurer returns a measurer that builds its circuits over conn and
// reports RTTs in the network's virtual milliseconds. Every worker's
// measurer may share one conn.
func (c *Control) NewMeasurer(conn *control.Conn, samples int, obs *ting.Observer) (*ting.Measurer, error) {
	return ting.NewMeasurer(ting.Config{
		Prober: &ting.ControlProber{
			Conn:     conn,
			DataAddr: c.data,
			Target:   c.target,
			ToMs: func(d time.Duration) float64 {
				return float64(d) / float64(time.Millisecond) / c.scale
			},
		},
		W:        c.w,
		Z:        c.z,
		Samples:  samples,
		Observer: obs,
	})
}
