package breathe

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"breathe/internal/api"
	"breathe/internal/sim"
)

var updateAddresses = flag.Bool("update-addresses", false, "add the current addresses to testdata/addresses.golden")

const addressesGolden = "testdata/addresses.golden"

// ledgerLine is one ledger entry: the configuration's label, its content
// address (api.RunRequest.Hash) and the SHA-256 of the canonical
// RunResponse bytes served under that address.
type ledgerLine struct {
	label, hash, digest string
}

func (l ledgerLine) String() string { return l.label + " " + l.hash + " " + l.digest }

// ledgerRuns runs every protocol × {self, no-self} × {crash-free, 10%
// crashed} × {to completion, stopped at half its schedule} at n = 512,
// seed 1, and returns one line per run. The stopped runs are there
// because a completed broadcast ends unanimous: its response then shows
// little of how Stage II decided (async-selfsync's shows nothing, its
// message counts being blind to the bits sent), while opinions halfway
// through the schedule do.
func ledgerRuns(t *testing.T) []ledgerLine {
	var lines []ledgerLine
	for _, proto := range api.Protocols {
		for _, noSelf := range []bool{false, true} {
			for _, crash := range []float64{0, 0.1} {
				for _, stop := range []string{"complete", "half"} {
					req := api.RunRequest{Protocol: proto, N: 512, Seed: 1, NoSelfMessages: noSelf, CrashProb: crash}
					run, err := req.Build()
					if err == nil && stop == "half" {
						req.MaxRounds = run.ScheduleRounds / 2
						run, err = req.Build()
					}
					if err != nil {
						t.Fatalf("Build(%+v): %v", req, err)
					}
					p := run.NewProtocol()
					res, err := sim.Run(run.Config, p)
					if err != nil {
						t.Fatalf("Run(%+v): %v", req, err)
					}
					raw, err := json.Marshal(api.NewResponse(req, res, run.Crashed, p))
					if err != nil {
						t.Fatal(err)
					}
					self, faults := "self", "crash-free"
					if noSelf {
						self = "no-self"
					}
					if crash > 0 {
						faults = "crash-10%"
					}
					sum := sha256.Sum256(raw)
					lines = append(lines, ledgerLine{
						label:  strings.Join([]string{proto, self, faults, stop}, " "),
						hash:   req.Hash(),
						digest: hex.EncodeToString(sum[:]),
					})
				}
			}
		}
	}
	return lines
}

// readLedger parses the ledger file; '#' lines are comments.
func readLedger(t *testing.T) []ledgerLine {
	raw, err := os.ReadFile(addressesGolden)
	if err != nil {
		t.Fatal(err)
	}
	var lines []ledgerLine
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 6 {
			t.Fatalf("%s: malformed line %q", addressesGolden, sc.Text())
		}
		lines = append(lines, ledgerLine{label: strings.Join(f[:4], " "), hash: f[4], digest: f[5]})
	}
	return lines
}

// TestAddressLedger holds every content address to the bytes it names: a
// cached response or a sweep checkpoint is served by its config hash, so
// a change that moves a result must move its address too (bump the
// protocol's sampler line in api.RunRequest.Hash). The ledger keeps the
// addresses of earlier samplers, so a result that moves under an address
// the ledger already knows fails by name even after a regeneration. Add
// the current addresses with
//
//	go test -run TestAddressLedger -update-addresses .
//
// and record each new address (a re-pin) in CHANGES.md.
func TestAddressLedger(t *testing.T) {
	got := ledgerRuns(t)
	ledger := readLedger(t)
	known := make(map[string]ledgerLine, len(ledger))
	for _, l := range ledger {
		known[l.hash] = l
	}
	if *updateAddresses {
		var b bytes.Buffer
		b.WriteString("# protocol, self-messages, faults, stop (n = 512, seed 1) | config hash | SHA-256 of the response bytes\n")
		current := make(map[string]bool, len(got))
		for _, l := range got {
			if old, ok := known[l.hash]; ok && old.digest != l.digest {
				t.Fatalf("%s: refusing to re-pin address %s to new bytes: bump the protocol's sampler line", l.label, l.hash)
			}
			current[l.hash] = true
			fmt.Fprintln(&b, l)
		}
		b.WriteString("# addresses of earlier samplers, kept so that none is reused for other bytes\n")
		for _, l := range ledger {
			if !current[l.hash] {
				fmt.Fprintln(&b, l)
			}
		}
		if err := os.WriteFile(addressesGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, l := range got {
		old, ok := known[l.hash]
		switch {
		case !ok:
			t.Errorf("%s: address %s is not in %s: regenerate it with -update-addresses and record the re-pin", l.label, l.hash, addressesGolden)
		case old.digest != l.digest:
			t.Errorf("%s: the response bytes changed under the unchanged address %s (digest %s, ledger %s): bump the protocol's sampler line in api.RunRequest.Hash", l.label, l.hash, l.digest, old.digest)
		}
	}
}
