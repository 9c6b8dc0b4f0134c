package main

import (
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildHHCD compiles the daemon once per test binary into a temp dir.
func buildHHCD(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the hhcd binary")
	}
	bin := filepath.Join(t.TempDir(), "hhcd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestStartupFailuresPrintNoBanner pins the startup ordering contract: the
// "serving path queries" banner is the healthy signal scripts wait for, so
// any startup failure — a malformed -peers list, a bad -self index, an
// unbindable -addr — must exit non-zero with a diagnostic and never emit
// the banner.
func TestStartupFailuresPrintNoBanner(t *testing.T) {
	bin := buildHHCD(t)

	// An occupied port: -addr collisions are the listener-failure case.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	busy := ln.Addr().String()

	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"malformed peers", []string{"-m", "2", "-peers", "a:1,,b:2"}, "bad peer list"},
		{"peer missing port", []string{"-m", "2", "-peers", "hostonly"}, "bad peer list"},
		{"duplicate peers", []string{"-m", "2", "-peers", "a:1,a:1"}, "bad peer list"},
		{"single peer", []string{"-m", "2", "-peers", "a:1"}, "bad peer list"},
		{"self out of range", []string{"-m", "2", "-peers", "a:1,b:2", "-self", "5"}, "out of range"},
		{"self without peers", []string{"-m", "2", "-self", "1"}, "without -peers"},
		{"addr in use", []string{"-m", "2", "-addr", busy}, busy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("hhcd %v exited 0; want startup failure\n%s", tc.args, out)
			}
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("hhcd did not run: %v", err)
			}
			if !strings.Contains(string(out), tc.wantErr) {
				t.Errorf("stderr does not mention %q:\n%s", tc.wantErr, out)
			}
			if strings.Contains(string(out), "serving path queries") {
				t.Errorf("banner printed despite startup failure:\n%s", out)
			}
		})
	}
}

// TestClusterBannerAfterHealthyStart pins the happy path: a valid cluster
// config serves, prints a banner naming the membership, and drains to exit
// 0 when its -duration elapses.
func TestClusterBannerAfterHealthyStart(t *testing.T) {
	bin := buildHHCD(t)
	// Reserve two loopback ports, release them, and hand them to the peers.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	peers := strings.Join(addrs, ",")
	out, err := exec.Command(bin, "-m", "2", "-addr", addrs[0],
		"-peers", peers, "-self", "0", "-duration", "300ms").CombinedOutput()
	if err != nil {
		t.Fatalf("clustered hhcd failed: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "serving path queries") {
		t.Errorf("no banner:\n%s", s)
	}
	if !strings.Contains(s, "cluster of 2 peers") {
		t.Errorf("banner does not describe the cluster:\n%s", s)
	}
	if !strings.Contains(s, "drained:") || !strings.Contains(s, " refused=") {
		t.Errorf("no drain summary with the refused bucket:\n%s", s)
	}
	if strings.Contains(s, "ledger imbalance") {
		t.Errorf("idle drain reports a ledger imbalance:\n%s", s)
	}
}
