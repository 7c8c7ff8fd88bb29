// Package simclock provides a deterministic virtual clock for the query
// execution engine. All costs in the system — I/O waits, per-row CPU work,
// latch acquisitions — are charged to a Clock instead of being measured with
// wall time. Experiments therefore produce identical "execution times" on
// every run and on every machine, which is what lets the robustness maps of
// the paper be regenerated exactly.
//
// A Clock also keeps named cost accounts so that an experiment can report
// where virtual time went (sequential I/O vs. random I/O vs. CPU), mirroring
// the per-operator analysis in the paper's discussion of Figures 1–10.
package simclock

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Account identifies a category of virtual-time expenditure.
type Account string

// Standard accounts used throughout the engine. Packages may define their
// own accounts; these cover the cost categories the paper reasons about.
const (
	AccountSeqIO   Account = "io.sequential"
	AccountRandIO  Account = "io.random"
	AccountCPU     Account = "cpu"
	AccountSort    Account = "cpu.sort"
	AccountHash    Account = "cpu.hash"
	AccountCompare Account = "cpu.compare"
	AccountLatch   Account = "latch"
	AccountSpillIO Account = "io.spill"
	AccountOther   Account = "other"
)

// Clock is a deterministic virtual clock. It is not safe for concurrent
// use: each measurement session owns its own Clock, confined to one
// goroutine at a time (engine.Session). Parallel sweeps run many clocks on
// many goroutines — one per session — but never share one; the paper's
// serial measurement semantics are preserved per run, concurrency only
// overlaps separate runs' wall-clock time.
type Clock struct {
	now    time.Duration
	frozen bool

	// accounts holds the accounts charged so far, in first-charge order. A
	// run charges a handful of them and alternates between them call by
	// call (latch, compare, CPU), so a linear search over a short slice
	// beats hashing the name on every Advance, while Account stays an
	// open-ended string.
	accounts []acctSum
}

type acctSum struct {
	acct Account
	sum  time.Duration
}

// New returns a Clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time since the clock's epoch.
func (c *Clock) Now() time.Duration { return c.now }

// Advance charges d of virtual time to the given account. Negative charges
// and charges to a frozen clock panic: both indicate engine bugs that would
// silently corrupt an experiment.
func (c *Clock) Advance(acct Account, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v on %q", d, acct))
	}
	if c.frozen {
		panic("simclock: advance on frozen clock")
	}
	c.now += d
	for i := range c.accounts {
		if c.accounts[i].acct == acct {
			c.accounts[i].sum += d
			return
		}
	}
	c.accounts = append(c.accounts, acctSum{acct, d})
}

// Freeze prevents further advances. Experiments freeze the clock after a
// query completes so a leaked iterator cannot perturb the measurement.
func (c *Clock) Freeze() { c.frozen = true }

// Frozen reports whether the clock has been frozen.
func (c *Clock) Frozen() bool { return c.frozen }

// Reset returns the clock to time zero, clears all accounts, and unfreezes.
func (c *Clock) Reset() {
	c.now = 0
	c.frozen = false
	c.accounts = c.accounts[:0]
}

// Spent returns the time charged to a single account.
func (c *Clock) Spent(acct Account) time.Duration {
	for _, a := range c.accounts {
		if a.acct == acct {
			return a.sum
		}
	}
	return 0
}

// Accounts returns a copy of all non-zero accounts.
func (c *Clock) Accounts() map[Account]time.Duration {
	out := make(map[Account]time.Duration, len(c.accounts))
	for _, a := range c.accounts {
		if a.sum != 0 {
			out[a.acct] = a.sum
		}
	}
	return out
}

// Breakdown renders the accounts as a deterministic, human-readable summary
// sorted by descending expenditure, e.g. for EXPLAIN ANALYZE-style output.
func (c *Clock) Breakdown() string {
	rows := make([]acctSum, 0, len(c.accounts))
	for _, a := range c.accounts {
		if a.sum != 0 {
			rows = append(rows, a)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].sum != rows[j].sum {
			return rows[i].sum > rows[j].sum
		}
		return rows[i].acct < rows[j].acct
	})
	var b strings.Builder
	fmt.Fprintf(&b, "total %v", c.now)
	for _, r := range rows {
		fmt.Fprintf(&b, "; %s %v", r.acct, r.sum)
	}
	return b.String()
}

// Timer measures a span of virtual time.
type Timer struct {
	c     *Clock
	start time.Duration
}

// StartTimer begins a span at the current virtual time.
func (c *Clock) StartTimer() Timer { return Timer{c: c, start: c.now} }

// Elapsed returns the virtual time since the timer started.
func (t Timer) Elapsed() time.Duration { return t.c.now - t.start }
