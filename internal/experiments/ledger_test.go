package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"hawkeye/internal/workload"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/verdicts.json from the current verdict grid")

// ledgerPath is the committed verdict ledger: what the reproduction
// concludes on every trial of the default grid. A change that moves a
// verdict shows up as a diff of this file.
const ledgerPath = "testdata/verdicts.json"

// gridSeeds is the default grid's seed range: every scenario at seeds
// 1..gridSeeds, at its default operating point.
const gridSeeds = 5

// verdictRow is one trial of the default grid as the ledger records it.
// The score is fixed at four decimals so the ledger holds on any
// machine.
type verdictRow struct {
	Scenario   string   `json:"scenario"`
	Seed       uint64   `json:"seed"`
	Detected   bool     `json:"detected"`
	Correct    bool     `json:"correct"`
	Reason     string   `json:"reason"`
	Type       string   `json:"type,omitempty"`
	Cause      string   `json:"cause,omitempty"`
	Initiator  string   `json:"initiator,omitempty"`
	Culprits   []string `json:"culprits,omitempty"`
	Confidence string   `json:"confidence,omitempty"`
	Score      string   `json:"score,omitempty"`
	Missing    []string `json:"missing,omitempty"`
}

func rowOf(tr *Trial) verdictRow {
	row := verdictRow{
		Scenario: tr.Cfg.Scenario,
		Seed:     tr.Cfg.Seed,
		Detected: tr.Score.Detected,
		Correct:  tr.Score.Correct,
		Reason:   tr.Score.Reason,
	}
	if res := tr.Score.Result; res != nil {
		d := res.Diagnosis
		c := d.PrimaryCause()
		row.Type = d.Type.String()
		row.Cause = c.Kind.String()
		row.Initiator = c.Port.String()
		for _, f := range c.Flows {
			row.Culprits = append(row.Culprits, f.String())
		}
		sort.Strings(row.Culprits)
		row.Confidence = d.Confidence.String()
		row.Score = fmt.Sprintf("%.4f", d.ConfidenceScore)
		row.Missing = d.Missing
	}
	return row
}

// grid is the default grid, run once per test binary and shared by every
// test that reads it. Only the rows are kept: a Trial holds its whole
// cluster.
var grid struct {
	once sync.Once
	rows []verdictRow
	err  error
}

func verdictGrid(t *testing.T) []verdictRow {
	t.Helper()
	grid.once.Do(func() {
		var cfgs []TrialConfig
		for _, name := range workload.AllScenarios() {
			for seed := uint64(1); seed <= gridSeeds; seed++ {
				cfgs = append(cfgs, DefaultTrialConfig(name, seed))
			}
		}
		grid.rows, grid.err = mapOrdered(NewRunner(2), len(cfgs), func(i int) (verdictRow, error) {
			tr, err := RunTrial(cfgs[i])
			if err != nil {
				return verdictRow{}, err
			}
			return rowOf(tr), nil
		})
	})
	if grid.err != nil {
		t.Fatal(grid.err)
	}
	return grid.rows
}

// rowJSON is one row on one line, flow arrows unescaped.
func rowJSON(r verdictRow) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(r)
	return string(bytes.TrimSuffix(b.Bytes(), []byte("\n")))
}

// encodeLedger writes one row per line, so a moved verdict is a one-line
// diff.
func encodeLedger(rows []verdictRow) []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rows {
		b.WriteString(rowJSON(r))
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// TestVerdictLedger diffs the default grid against the committed ledger
// and reports every trial whose verdict moved. `go test -run
// TestVerdictLedger -update` rewrites the ledger; its diff is then the
// behaviour change, reviewed like code.
func TestVerdictLedger(t *testing.T) {
	rows := verdictGrid(t)
	got := encodeLedger(rows)
	if *updateLedger {
		if err := os.WriteFile(ledgerPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var old []verdictRow
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}
	key := func(r verdictRow) string { return fmt.Sprintf("%s seed=%d", r.Scenario, r.Seed) }
	recorded := make(map[string]verdictRow, len(old))
	for _, r := range old {
		recorded[key(r)] = r
	}
	for _, r := range rows {
		o, ok := recorded[key(r)]
		delete(recorded, key(r))
		if ok && reflect.DeepEqual(o, r) {
			continue
		}
		if !ok {
			t.Errorf("%s: not in the ledger\n  now:    %s", key(r), rowJSON(r))
			continue
		}
		t.Errorf("%s: verdict moved\n  ledger: %s\n  now:    %s", key(r), rowJSON(o), rowJSON(r))
	}
	for k := range recorded {
		t.Errorf("%s: in the ledger, not in the grid", k)
	}
	t.Errorf("%s disagrees with the grid; if the change is intended, rerun with -update and review the diff", ledgerPath)
}
