package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is the process state at one phase boundary.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU
	mallocs uint64
	numGC   uint32
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{wall: time.Now(), cpu: cpu, mallocs: ms.Mallocs, numGC: ms.NumGC}
}

// phase is what one measured phase cost the process.
type phase struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	peakMiB []float64 // VmHWM of each rssInterval of the phase
}

// rssInterval is how often a measured phase reads and restarts the
// peak-RSS mark. The median of the interval peaks is steadier than the
// phase's single highest point, which lands wherever one GC cycle ran late.
const rssInterval = 100 * time.Millisecond

// measure runs fn as a measured phase. It first collects garbage and returns
// freed memory to the OS, then restarts the peak-RSS mark, so the phase's
// peaks reflect serving rather than set-up. It reports whether the kernel
// let it restart the mark.
func measure(fn func()) (phase, bool) {
	debug.FreeOSMemory() // includes the runtime.GC the measured phase starts from
	reset := resetPeakRSS()
	var peaks []float64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				peaks = append(peaks, peakRSSMiB())
				resetPeakRSS()
			}
		}
	}()
	a := snapProc()
	fn()
	b := snapProc()
	close(stop)
	<-sampled
	return phase{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs,
		gcs:     b.numGC - a.numGC,
		peakMiB: append(peaks, peakRSSMiB()),
	}, reset
}

// resetPeakRSS restarts the kernel's peak-RSS mark for this process
// (clear_refs "5"); it reports false where the kernel refuses.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB returns the process's VmHWM in MiB (0 if unreadable).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from, marked dirty
// when the tree had local changes, or "unknown" outside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0x858458f6: "ramfs",
		0xef53:     "ext4",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
