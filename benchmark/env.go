package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// commit is the source revision, stamped at build time by run.sh.
var commit = "unknown"

// envRecord is printed with every result so a number always names the
// host and build that produced it.
type envRecord struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         int    `json:"trace"`
	Commit        string `json:"commit"`
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	CPUModel      string `json:"cpu_model"`
	WALFilesystem string `json:"wal_filesystem"`
	Backend       string `json:"backend"`
	Partitions    int    `json:"partitions"`
	Terminals     int    `json:"terminals"`
	ClientPool    int    `json:"client_pool"`
}

func newEnvRecord(w workload, seed int64, seconds, trace int, walRoot string) envRecord {
	fs := "none (in-memory log)"
	if w.durable {
		fs = filesystem(walRoot)
	}
	return envRecord{
		Workload:      w.name,
		Seed:          seed,
		Seconds:       seconds,
		Trace:         trace,
		Commit:        commit,
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		WALFilesystem: fs,
		Backend:       backend,
		Partitions:    w.partitions,
		Terminals:     w.terminals,
		ClientPool:    poolSize,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsNames maps statfs magic numbers to filesystem names.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

func filesystem(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(s.Type)]; ok {
		return name
	}
	return fmt.Sprintf("magic 0x%x", s.Type)
}
