// Package cliflags holds the flag plumbing shared by the ting commands
// (cmd/ting, cmd/tingnet, cmd/tingd): the -debug-addr telemetry surface,
// the -dir directory-server address, repeatable flags, the
// -crash/-flap/-churn fault-plan knobs, the control-port boot of ting
// and tingd (control.go), and the -addr-file format tingd and tingcamp
// write and tingload reads (addrfile.go). Each command used to grow its own
// copy; one package means one spelling, one usage string, and one parser
// for each knob.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ting/internal/faults"
	"ting/internal/telemetry"
)

// DebugAddr registers -debug-addr on fs and returns the destination.
func DebugAddr(fs *flag.FlagSet) *string {
	return fs.String("debug-addr", "", "serve telemetry and pprof on this address (e.g. 127.0.0.1:6060)")
}

// Dir registers -dir on fs with a command-specific usage string.
func Dir(fs *flag.FlagSet, usage string) *string {
	return fs.String("dir", "", usage)
}

// BootTelemetry turns a -debug-addr value into a live debug surface. With
// an empty addr it returns a nil registry (the no-op telemetry mode), an
// empty bound address, and a no-op shutdown. Otherwise it boots
// telemetry.Serve, prints where the surface landed, and returns the
// registry, the bound address (so :0 binds are discoverable), and the
// server's shutdown.
func BootTelemetry(addr string) (reg *telemetry.Registry, bound string, shutdown func(), err error) {
	if addr == "" {
		return nil, "", func() {}, nil
	}
	reg = telemetry.New()
	bound, stop, err := telemetry.Serve(addr, reg)
	if err != nil {
		return nil, "", nil, err
	}
	fmt.Printf("telemetry: http://%s/metrics.json (pprof under /debug/pprof/)\n", bound)
	return reg, bound, func() { _ = stop() }, nil
}

// Multi collects every occurrence of a repeatable flag.
type Multi []string

func (m *Multi) String() string     { return strings.Join(*m, ",") }
func (m *Multi) Set(v string) error { *m = append(*m, v); return nil }

// FaultFlags are the fault-injection knobs of a command that embeds (or
// targets) a mintor overlay.
type FaultFlags struct {
	Crash Multi
	Flap  Multi
	Churn Multi
	Seed  int64
}

// Register installs -crash, -flap, -churn, and -fault-seed on fs.
func (f *FaultFlags) Register(fs *flag.FlagSet) {
	fs.Var(&f.Crash, "crash", "kill a relay permanently: name:delay (e.g. relay002:30s; repeatable)")
	fs.Var(&f.Flap, "flap", "flap a relay: name:period:down (e.g. relay001:10s:2s; repeatable)")
	fs.Var(&f.Churn, "churn", "churn the consensus: join:name:delay holds the relay out of the initial consensus and publishes it then; drain:name:delay drains it gracefully (e.g. drain:relay003:45s; repeatable)")
	fs.Int64Var(&f.Seed, "fault-seed", 7, "seed for the fault plan's probabilistic decisions")
}

// Empty reports whether no fault was requested.
func (f *FaultFlags) Empty() bool {
	return len(f.Crash) == 0 && len(f.Flap) == 0 && len(f.Churn) == 0
}

// BuildPlan turns the flags into a fault plan, or nil when no fault was
// requested. known validates relay names (nil accepts any). A relay may
// appear in several flags; the schedules merge.
func (f *FaultFlags) BuildPlan(known func(name string) bool) (*faults.Plan, error) {
	if f.Empty() {
		return nil, nil
	}
	schedules := map[string]faults.RelaySchedule{}
	relay := func(name string) (faults.RelaySchedule, error) {
		if known != nil && !known(name) {
			return faults.RelaySchedule{}, fmt.Errorf("fault plan: unknown relay %q", name)
		}
		return schedules[name], nil
	}
	for _, spec := range f.Crash {
		parts := strings.Split(spec, ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -crash %q, want name:delay", spec)
		}
		rs, err := relay(parts[0])
		if err != nil {
			return nil, err
		}
		delay, err := time.ParseDuration(parts[1])
		if err != nil || delay <= 0 {
			return nil, fmt.Errorf("bad -crash delay %q: want a positive duration", parts[1])
		}
		rs.CrashAfter = delay
		schedules[parts[0]] = rs
	}
	for _, spec := range f.Flap {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -flap %q, want name:period:down", spec)
		}
		rs, err := relay(parts[0])
		if err != nil {
			return nil, err
		}
		period, err := time.ParseDuration(parts[1])
		if err != nil || period <= 0 {
			return nil, fmt.Errorf("bad -flap period %q: want a positive duration", parts[1])
		}
		down, err := time.ParseDuration(parts[2])
		if err != nil || down <= 0 || down >= period {
			return nil, fmt.Errorf("bad -flap downtime %q: want a positive duration shorter than the period", parts[2])
		}
		rs.FlapPeriod, rs.FlapDown = period, down
		schedules[parts[0]] = rs
	}
	for _, spec := range f.Churn {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 || (parts[0] != "join" && parts[0] != "drain") {
			return nil, fmt.Errorf("bad -churn %q, want join:name:delay or drain:name:delay", spec)
		}
		rs, err := relay(parts[1])
		if err != nil {
			return nil, err
		}
		delay, err := time.ParseDuration(parts[2])
		if err != nil || delay <= 0 {
			return nil, fmt.Errorf("bad -churn delay %q: want a positive duration", parts[2])
		}
		if parts[0] == "join" {
			rs.JoinAfter = delay
		} else {
			rs.DrainAfter = delay
		}
		schedules[parts[1]] = rs
	}
	plan := faults.NewPlan(f.Seed)
	for name, rs := range schedules {
		plan.SetRelay(name, rs)
	}
	return plan, nil
}

// PrintFaultPlan reports the injected failure schedule so a transcript of
// the run records what the network was doing to itself. Nil plans print
// nothing.
func PrintFaultPlan(w io.Writer, plan *faults.Plan) {
	if plan == nil {
		return
	}
	fmt.Fprintf(w, "fault plan (seed %d, clock starts now):\n", plan.Seed)
	relays := plan.Relays()
	names := make([]string, 0, len(relays))
	for name := range relays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := relays[name]
		if rs.CrashAfter > 0 {
			fmt.Fprintf(w, "  %s: crashes permanently after %v\n", name, rs.CrashAfter)
		}
		if rs.FlapPeriod > 0 {
			fmt.Fprintf(w, "  %s: down %v at the top of every %v\n", name, rs.FlapDown, rs.FlapPeriod)
		}
		if rs.JoinAfter > 0 {
			fmt.Fprintf(w, "  %s: held out of the consensus, joins after %v\n", name, rs.JoinAfter)
		}
		if rs.DrainAfter > 0 {
			fmt.Fprintf(w, "  %s: drains gracefully after %v\n", name, rs.DrainAfter)
		}
	}
}
