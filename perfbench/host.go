package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostState is what the host looked like around one run, printed next to
// its metrics so that a run disturbed by socket carry-over from the run
// before it, or by a noisy neighbour, can be told apart from a slow build.
type hostState struct {
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// PortRange is the ephemeral port range; TIME_WAIT sockets beyond a
	// good share of it slow down every new loopback connection.
	PortRange     [2]int `json:"ephemeral_port_range"`
	TimeWaitStart int    `json:"time_wait_start"`
	TimeWaitEnd   int    `json:"time_wait_end"`
	// StealSeconds is CPU time the hypervisor gave to someone else during
	// the run, summed over CPUs; LoadStart/LoadEnd are the 1-minute load
	// averages at either end.
	StealSeconds float64 `json:"steal_s"`
	LoadStart    float64 `json:"loadavg_start"`
	LoadEnd      float64 `json:"loadavg_end"`

	stealStart int64
}

// userHZ is the kernel's clock-tick rate for /proc/stat (CLK_TCK).
const userHZ = 100

// startHost records the host state at the start of a run. Files the host
// does not have leave their fields zero.
func startHost() *hostState {
	h := &hostState{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	h.CPUModel = parseCPUModel(readProc("/proc/cpuinfo"))
	h.PortRange, _ = parsePortRange(readProc("/proc/sys/net/ipv4/ip_local_port_range"))
	h.TimeWaitStart = timeWait()
	h.stealStart, _ = parseStealTicks(readProc("/proc/stat"))
	h.LoadStart, _ = parseLoadavg(readProc("/proc/loadavg"))
	return h
}

// finish records the end-of-run side.
func (h *hostState) finish() {
	h.TimeWaitEnd = timeWait()
	if steal, err := parseStealTicks(readProc("/proc/stat")); err == nil {
		h.StealSeconds = float64(steal-h.stealStart) / userHZ
	}
	h.LoadEnd, _ = parseLoadavg(readProc("/proc/loadavg"))
}

func readProc(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

// timeWait counts the host's IPv4 and IPv6 TCP sockets in TIME_WAIT.
func timeWait() int {
	return countTimeWait(readProc("/proc/net/tcp")) + countTimeWait(readProc("/proc/net/tcp6"))
}

// countTimeWait counts the rows of a /proc/net/tcp{,6} table whose state
// column ("st") is 06, TCP_TIME_WAIT.
func countTimeWait(table string) int {
	n := 0
	sc := bufio.NewScanner(strings.NewReader(table))
	first := true
	for sc.Scan() {
		if first { // header row
			first = false
			continue
		}
		f := strings.Fields(sc.Text())
		if len(f) > 3 && f[3] == "06" {
			n++
		}
	}
	return n
}

// parsePortRange parses /proc/sys/net/ipv4/ip_local_port_range.
func parsePortRange(s string) ([2]int, error) {
	f := strings.Fields(s)
	if len(f) != 2 {
		return [2]int{}, fmt.Errorf("port range %q: want two fields", s)
	}
	lo, err1 := strconv.Atoi(f[0])
	hi, err2 := strconv.Atoi(f[1])
	if err1 != nil || err2 != nil || lo > hi {
		return [2]int{}, fmt.Errorf("port range %q: not a range", s)
	}
	return [2]int{lo, hi}, nil
}

// parseStealTicks returns the steal column (the 8th value) of the
// aggregate "cpu" line of /proc/stat.
func parseStealTicks(stat string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(stat))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, fmt.Errorf("/proc/stat cpu line has %d fields, want at least 9", len(f))
		}
		return strconv.ParseInt(f[8], 10, 64)
	}
	return 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// parseLoadavg returns the 1-minute load average from /proc/loadavg.
func parseLoadavg(s string) (float64, error) {
	f := strings.Fields(s)
	if len(f) == 0 {
		return 0, fmt.Errorf("loadavg %q: empty", s)
	}
	return strconv.ParseFloat(f[0], 64)
}

// parseCPUModel returns the first "model name" of /proc/cpuinfo.
func parseCPUModel(cpuinfo string) string {
	sc := bufio.NewScanner(strings.NewReader(cpuinfo))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
