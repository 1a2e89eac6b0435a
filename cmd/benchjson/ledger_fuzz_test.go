package main

import (
	"fmt"
	"os"
	"testing"
)

// FuzzLedger holds the ledger reader to its contract on any bytes: it
// never panics, a refused file fails with the same error text when read
// again, and every ledger it accepts passes -check against itself with
// exit 0 and every row ok. The corpus starts from the committed
// baseline and a ledger with an out-of-order cell.
func FuzzLedger(f *testing.F) {
	baseline, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(baseline)
	f.Add([]byte(disorderedLedger))

	// compare prints its verdict table; keep it out of the fuzz log.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		f.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	f.Cleanup(func() {
		os.Stdout = stdout
		devnull.Close()
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		cur, err := parseFile("ledger.json", data)
		base, again := parseFile("ledger.json", data)
		if fmt.Sprint(err) != fmt.Sprint(again) {
			t.Fatalf("replay changed the error: %v, then %v", err, again)
		}
		if err != nil {
			return
		}
		code, rows := compare(cur, base)
		if code != 0 {
			t.Fatalf("accepted ledger fails -check against itself: exit %d", code)
		}
		for _, row := range rows {
			if row.failed {
				t.Fatalf("accepted ledger fails -check against itself: %s: %s", row.name, row.verdict)
			}
		}
	})
}
