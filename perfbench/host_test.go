package main

import "testing"

const tcpTable = `  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode
   0: 0100007F:1F90 00000000:0000 0A 00000000:00000000 00:00000000 00000000     0        0 1311 1 0000000000000000 100 0 0 10 0
   1: 0100007F:9C40 0100007F:1F90 06 00000000:00000000 03:00001770 00000000     0        0 0 3 0000000000000000
   2: 0100007F:9C41 0100007F:1F90 06 00000000:00000000 03:00001770 00000000     0        0 0 3 0000000000000000
   3: 0100007F:9C42 0100007F:1F90 01 00000000:00000000 00:00000000 00000000     0        0 1400 1 0000000000000000 20 4 30 10 -1
`

func TestCountTimeWait(t *testing.T) {
	if got := countTimeWait(tcpTable); got != 2 {
		t.Errorf("countTimeWait = %d, want 2", got)
	}
	if got := countTimeWait(""); got != 0 {
		t.Errorf("empty table: %d, want 0", got)
	}
}

func TestParseHostFields(t *testing.T) {
	if r, err := parsePortRange("32768\t60999\n"); err != nil || r != [2]int{32768, 60999} {
		t.Errorf("parsePortRange = %v, %v", r, err)
	}
	for _, bad := range []string{"", "1", "9 3", "a b"} {
		if _, err := parsePortRange(bad); err == nil {
			t.Errorf("parsePortRange(%q) accepted", bad)
		}
	}
	stat := "cpu  1805509 0 125113 4352354 443 0 21235 71493 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	if got, err := parseStealTicks(stat); err != nil || got != 71493 {
		t.Errorf("parseStealTicks = %d, %v, want 71493", got, err)
	}
	if _, err := parseStealTicks("cpu 1 2 3\n"); err == nil {
		t.Error("short cpu line accepted")
	}
	if got, err := parseLoadavg("0.13 0.83 0.97 1/85 31767\n"); err != nil || got != 0.13 {
		t.Errorf("parseLoadavg = %v, %v", got, err)
	}
	info := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n"
	if got := parseCPUModel(info); got != "Intel(R) Xeon(R) Processor" {
		t.Errorf("parseCPUModel = %q", got)
	}
}
