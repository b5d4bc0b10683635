package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"ossd/internal/experiments"
	"ossd/internal/runner"
)

// reportGoldens pins the SHA-256 of the full text report for fixed
// seeds. They must survive any refactor that claims behavioral
// equivalence; a PR that deliberately changes simulated behavior or
// report formatting updates them alongside the change (last updated
// when the interference experiment joined the catalog — the tenancy
// refactor itself left the previous goldens byte-identical, verified
// before the catalog grew).
var reportGoldens = map[int64]string{
	1: "3cde8864c72567141ecd5f3e8052e714a1b126ec3e4ad34c44c9650d2160bca5",
	7: "16f2bac08afd8f9b731ca1586bc194159ead731cb5a993ed96e6bf9796b568c9",
}

// reportBytes regenerates the full text report exactly as `repro -seed
// N` writes it to its output, with each experiment's internal fan-out
// running on `workers` workers.
func reportBytes(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	selected := experiments.Catalog()
	specs := make([]runner.Spec[experiments.Result], len(selected))
	for i, e := range selected {
		e := e
		specs[i] = runner.Spec[experiments.Result]{
			Name: e.ID,
			Seed: seed,
			Run:  func() (experiments.Result, error) { return e.Run(seed, workers) },
		}
	}
	outcomes := runner.RunAll(specs, runner.Options{Workers: runner.DefaultWorkers()})
	var buf bytes.Buffer
	if failed := writeText(&buf, seed, selected, outcomes); failed {
		t.Fatalf("seed %d: an experiment failed:\n%s", seed, buf.String())
	}
	return buf.Bytes()
}

// TestReportByteIdentity regenerates the whole evaluation for seeds 1
// and 7 and requires the report bytes to hash to the recorded goldens.
// The full suite takes about a minute per seed, so the test only runs
// when REPRO_GOLDEN is set (CI sets it; see .github/workflows/ci.yml).
// It runs the suite at 1 and 4 workers against the same pinned hashes:
// the worker pools may never change a report byte.
func TestReportByteIdentity(t *testing.T) {
	if os.Getenv("REPRO_GOLDEN") == "" {
		t.Skip("set REPRO_GOLDEN=1 to run the full-report byte-identity check (~2 min)")
	}
	for _, workers := range []int{1, 4} {
		for seed, want := range reportGoldens {
			sum := sha256.Sum256(reportBytes(t, seed, workers))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("seed %d workers %d: report sha256 = %s, want %s (the simulation's observable behavior changed)", seed, workers, got, want)
			}
		}
	}
}
