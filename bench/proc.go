package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stolenTime is how long the hypervisor has kept this VM's CPUs from
// running, summed over the CPUs: the steal column of /proc/stat, in 10 ms
// ticks. 0 where there is no /proc.
func stolenTime() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	var line [256]byte
	n, _ := f.Read(line[:])
	// cpu user nice system idle iowait irq softirq steal …
	fields := strings.Fields(string(line[:n]))
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(fields[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// meter times an interval as the VM saw it: wall time less the share of it
// the hypervisor withheld. The host this was built on takes a CPU away for
// a moment a few times a minute, and for minutes on end takes half of both
// (stack-scan then reads 230 pairs/s for 560); stolen time is the one part
// of the host's interference the guest can see, so it is taken out.
type meter struct {
	start  time.Time
	stolen time.Duration
}

func startMeter() meter { return meter{time.Now(), stolenTime()} }

// ran is the metered time from start to end. Stolen time is summed over
// the CPUs, so it is spread over them; the 2 workers or 2 connections of
// every workload keep all of them busy.
func (m meter) ran(end time.Time) time.Duration {
	wall := end.Sub(m.start)
	lost := (stolenTime() - m.stolen) / time.Duration(runtime.NumCPU())
	if lost > wall*3/4 {
		lost = wall * 3 / 4
	}
	return wall - lost
}

// cpuTime is the user plus system time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative bytes the Go heap has handed out.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// usage is a point-in-time reading that a later reading is compared with.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	stolen time.Duration
}

func readUsage() usage { return usage{time.Now(), cpuTime(), stolenTime()} }

// stolenShare is the share of all processors' time the hypervisor withheld
// since u.
func (u usage) stolenShare() float64 {
	wall := time.Since(u.wall)
	if wall <= 0 {
		return 0
	}
	return float64(stolenTime()-u.stolen) / (float64(wall) * float64(runtime.NumCPU()))
}

// busyShare is the share of all processors this process kept busy since u.
func (u usage) busyShare() float64 {
	wall := time.Since(u.wall)
	if wall <= 0 {
		return 0
	}
	return float64(cpuTime()-u.cpu) / (float64(wall) * float64(runtime.NumCPU()))
}

// procMetrics fills the per-process rows of the per-layer table.
func procMetrics(layers map[string]value, since usage) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layers["proc.cpu_busy_share"] = value{since.busyShare(), 1}
	layers["proc.gc_cpu_share"] = value{ms.GCCPUFraction, int(ms.NumGC)}
	layers["proc.peak_rss_mb"] = value{peakRSSMiB(), 1}
	layers["proc.stolen_share"] = value{since.stolenShare(), 1}
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark; 0 where
// /proc is not available.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding dir: campaign's figure is mostly
// fsync, and on tmpfs an fsync costs nothing.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch int64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
