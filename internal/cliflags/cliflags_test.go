package cliflags

import (
	"flag"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, args ...string) *FaultFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f FaultFlags
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestFaultFlagsBuildPlan(t *testing.T) {
	f := parse(t,
		"-crash", "relay002:30s",
		"-flap", "relay001:10s:2s",
		"-churn", "drain:relay003:45s",
		"-churn", "join:relay004:1m",
		"-fault-seed", "11",
	)
	known := func(name string) bool { return strings.HasPrefix(name, "relay") }
	plan, err := f.BuildPlan(known)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 11 {
		t.Errorf("seed %d", plan.Seed)
	}
	relays := plan.Relays()
	if len(relays) != 4 {
		t.Fatalf("relays %v", relays)
	}
	if relays["relay002"].CrashAfter != 30*time.Second {
		t.Errorf("crash %v", relays["relay002"])
	}
	if rs := relays["relay001"]; rs.FlapPeriod != 10*time.Second || rs.FlapDown != 2*time.Second {
		t.Errorf("flap %v", rs)
	}
	if relays["relay003"].DrainAfter != 45*time.Second {
		t.Errorf("drain %v", relays["relay003"])
	}
	if relays["relay004"].JoinAfter != time.Minute {
		t.Errorf("join %v", relays["relay004"])
	}

	var out strings.Builder
	PrintFaultPlan(&out, plan)
	for _, want := range []string{"seed 11", "relay002: crashes", "relay001: down 2s", "relay003: drains", "relay004: held out"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("plan print missing %q:\n%s", want, out.String())
		}
	}
}

func TestFaultFlagsEmptyIsNilPlan(t *testing.T) {
	f := parse(t)
	plan, err := f.BuildPlan(nil)
	if err != nil || plan != nil {
		t.Fatalf("plan=%v err=%v", plan, err)
	}
	var out strings.Builder
	PrintFaultPlan(&out, nil)
	if out.Len() != 0 {
		t.Errorf("nil plan printed %q", out.String())
	}
}

func TestFaultFlagsRejectsBadSpecs(t *testing.T) {
	cases := [][]string{
		{"-crash", "relay002"},
		{"-crash", "relay002:nope"},
		{"-crash", "relay002:-3s"},
		{"-flap", "relay001:2s:10s"}, // down ≥ period
		{"-churn", "explode:relay003:45s"},
		{"-churn", "drain:relay003:0s"},
	}
	for _, args := range cases {
		f := parse(t, args...)
		if _, err := f.BuildPlan(nil); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	f := parse(t, "-crash", "ghost:30s")
	if _, err := f.BuildPlan(func(string) bool { return false }); err == nil {
		t.Error("unknown relay accepted")
	}
}

func TestBootTelemetryOffIsNoop(t *testing.T) {
	reg, bound, shutdown, err := BootTelemetry("")
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil || bound != "" {
		t.Errorf("registry/addr without -debug-addr: %v %q", reg, bound)
	}
	shutdown() // must not panic
}

func TestBootTelemetryBindsEphemeral(t *testing.T) {
	reg, bound, shutdown, err := BootTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if reg == nil {
		t.Fatal("no registry")
	}
	if strings.HasSuffix(bound, ":0") || bound == "" {
		t.Errorf("bound address %q not resolved", bound)
	}
	reg.Counter("x").Inc()
}

// TestAddrFileRoundTrip: what WriteAddrFile publishes, ReadAddrFile reads
// back, one key=value line a surface, and no temporary file is left behind.
func TestAddrFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tingd.addr")
	want := map[string]string{"http": "127.0.0.1:7070", "bin": "127.0.0.1:7071", "debug": "127.0.0.1:6060"}
	if err := WriteAddrFile(path, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(data); s != "bin=127.0.0.1:7071\ndebug=127.0.0.1:6060\nhttp=127.0.0.1:7070\n" {
		t.Errorf("addr file reads %q", s)
	}
	got, err := ReadAddrFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Errorf("read back %v, want %v", got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind: %v", err)
	}
}

// TestAddrFileFailedRenameLeavesNoTemp: an addr file whose rename fails —
// its path is a directory — reports the failure and leaves neither the
// directory changed nor a temporary file beside it.
func TestAddrFileFailedRenameLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tingd.addr")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteAddrFile(path, map[string]string{"http": "127.0.0.1:7070"}); err == nil {
		t.Fatal("addr file written over a directory")
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Errorf("failed write replaced the directory at its path: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind: %v", err)
	}
}
