package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/ip6"
)

// ioFixtureRIB covers the fixture addresses with one AS.
func ioFixtureRIB() *bgp.Table {
	rib := bgp.New()
	rib.Insert(bgp.Route{Prefix: ip6.MustParsePrefix("2001:16b8::/32"), ASN: 8881, Country: "DE"})
	return rib
}

// fixtureAddr places device d (EUI-64) in /64 block p of the fixture AS.
func fixtureAddr(d, p int) ip6.Addr {
	mac := ip6.MAC{0x38, 0x10, 0xd5, 0, byte(d >> 8), byte(d)}
	pfx := ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x100+p))
	return pfx.Addr().WithIID(ip6.EUI64FromMAC(mac))
}

// ingestFixtureDay records a deterministic day of observations: each of
// n devices answers from a day-dependent /64, plus probe accounting.
func ingestFixtureDay(c *core.Corpus, day, n int) {
	sd := c.NewScanDay(day)
	for d := 0; d < n; d++ {
		a := fixtureAddr(d, (d+day)%7)
		sd.Record(a, a)
		// A second probe of the same device from a different target hi
		// exercises the span aggregation.
		sd.Record(ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x200+d)).Addr().WithIID(a.IID()), a)
	}
	sd.AddProbes(uint64(n * 4))
	sd.Commit()
}

// corpusFingerprint condenses everything persistence must preserve:
// counters, day set, and the full v1 serialization (which walks every
// DayObs of every record in sorted order).
func corpusFingerprint(t *testing.T, c *core.Corpus) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestLoadCorpusReloadIdempotent is the resumable-ingestion regression:
// re-loading the same v1 snapshot into an already-loaded corpus must
// change nothing — no doubled probe/response counters, no duplicated
// DayObs entries.
func TestLoadCorpusReloadIdempotent(t *testing.T) {
	src := core.NewCorpus(ioFixtureRIB())
	for day := 0; day < 3; day++ {
		ingestFixtureDay(src, day, 5)
	}
	var file bytes.Buffer
	if err := src.Save(&file); err != nil {
		t.Fatal(err)
	}

	dst := core.NewCorpus(ioFixtureRIB())
	if err := core.LoadCorpus(bytes.NewReader(file.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	want := corpusFingerprint(t, dst)
	probes, responses := dst.Totals()

	if err := core.LoadCorpus(bytes.NewReader(file.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if got := corpusFingerprint(t, dst); got != want {
		t.Errorf("re-loading the same corpus changed it:\nfirst load:\n%s\nafter reload:\n%s", want, got)
	}
	p2, r2 := dst.Totals()
	if p2 != probes || r2 != responses {
		t.Errorf("re-load double-counted: probes %d -> %d, responses %d -> %d", probes, p2, responses, r2)
	}
	if rec, ok := dst.Lookup(core.IID(fixtureAddr(0, 0).IID())); ok {
		seen := map[int]int{}
		for _, d := range rec.Days {
			seen[d.Day]++
		}
		for day, n := range seen {
			if n > 2 { // fixture records at most 2 distinct (day, resp) rows per day
				t.Errorf("day %d has %d DayObs rows after reload (duplicated)", day, n)
			}
		}
	} else {
		t.Fatal("fixture device missing after reload")
	}
}

// TestLoadCorpusPartialOverlapAddsOnlyNewDays loads a 2-day journal
// into a corpus already holding day 0: only day 1 may land.
func TestLoadCorpusPartialOverlapAddsOnlyNewDays(t *testing.T) {
	src := core.NewCorpus(ioFixtureRIB())
	var journal bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&journal); err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 2; day++ {
		pBefore, rBefore := src.Totals()
		tBefore, eBefore := src.UniqueAddrs()
		ingestFixtureDay(src, day, 4)
		pAfter, rAfter := src.Totals()
		tAfter, eAfter := src.UniqueAddrs()
		if err := src.SaveDay(&journal, day, core.DaySegmentMeta{
			Probes:        pAfter - pBefore,
			Responses:     rAfter - rBefore,
			NewTotalAddrs: tAfter - tBefore,
			NewEUIAddrs:   eAfter - eBefore,
		}); err != nil {
			t.Fatal(err)
		}
	}

	dst := core.NewCorpus(ioFixtureRIB())
	ingestFixtureDay(dst, 0, 4) // day 0 already ingested live
	fpBefore := corpusFingerprint(t, dst)
	if err := core.LoadCorpus(bytes.NewReader(journal.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	days := dst.Days()
	if len(days) != 2 || days[0] != 0 || days[1] != 1 {
		t.Fatalf("days after overlap load = %v, want [0 1]", days)
	}
	// Loading the journal again must now be a complete no-op.
	fpAfter := corpusFingerprint(t, dst)
	if fpAfter == fpBefore {
		t.Fatal("day 1 did not land")
	}
	if err := core.LoadCorpus(bytes.NewReader(journal.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if got := corpusFingerprint(t, dst); got != fpAfter {
		t.Errorf("re-loading the journal changed the corpus")
	}
}

// TestLoadCorpusLineTooLong pins the over-long-line diagnostic: the
// loader must name the line and say "line too long", not surface a
// generic bufio error.
func TestLoadCorpusLineTooLong(t *testing.T) {
	var file bytes.Buffer
	file.WriteString("# followscent corpus v1\n")
	file.WriteString("probes 1\n")
	file.WriteString(strings.Repeat("x", 2<<20)) // one 2 MiB line, over the 1 MiB cap
	file.WriteString("\n")
	err := core.LoadCorpus(bytes.NewReader(file.Bytes()), core.NewCorpus(ioFixtureRIB()))
	if err == nil {
		t.Fatal("oversized line loaded without error")
	}
	if !strings.Contains(err.Error(), "line too long") {
		t.Errorf("error %q does not say 'line too long'", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
}

// TestJournalRoundTripEqualsBatch proves the v2 journal reconstructs
// the identical corpus the v1 snapshot does.
func TestJournalRoundTripEqualsBatch(t *testing.T) {
	src := core.NewCorpus(ioFixtureRIB())
	var journal bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&journal); err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 4; day++ {
		pBefore, rBefore := src.Totals()
		tBefore, eBefore := src.UniqueAddrs()
		ingestFixtureDay(src, day, 6)
		pAfter, rAfter := src.Totals()
		tAfter, eAfter := src.UniqueAddrs()
		if err := src.SaveDay(&journal, day, core.DaySegmentMeta{
			Probes:        pAfter - pBefore,
			Responses:     rAfter - rBefore,
			NewTotalAddrs: tAfter - tBefore,
			NewEUIAddrs:   eAfter - eBefore,
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := corpusFingerprint(t, src)

	fromJournal := core.NewCorpus(ioFixtureRIB())
	if err := core.LoadCorpus(bytes.NewReader(journal.Bytes()), fromJournal); err != nil {
		t.Fatal(err)
	}
	if got := corpusFingerprint(t, fromJournal); got != want {
		t.Errorf("journal replay diverges from the live corpus:\nlive:\n%s\nreplayed:\n%s", want, got)
	}
}

// TestLoadCorpusTornTailDropped: a journal whose final segment lost its
// endday marker (crash mid-append) loads cleanly without the torn day.
func TestLoadCorpusTornTailDropped(t *testing.T) {
	src := core.NewCorpus(ioFixtureRIB())
	var journal bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&journal); err != nil {
		t.Fatal(err)
	}
	ingestFixtureDay(src, 0, 3)
	if err := src.SaveDay(&journal, 0, core.DaySegmentMeta{Probes: 12, Responses: 6}); err != nil {
		t.Fatal(err)
	}
	// A torn day-1 segment: header and one obs, no endday.
	fmt.Fprintf(&journal, "day 1\nprobes 12\nobs %016x 1 %s %016x %016x 1\n",
		fixtureAddr(0, 1).IID(), fixtureAddr(0, 1), fixtureAddr(0, 1).High64(), fixtureAddr(0, 1).High64())

	dst := core.NewCorpus(ioFixtureRIB())
	if err := core.LoadCorpus(bytes.NewReader(journal.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if days := dst.Days(); len(days) != 1 || days[0] != 0 {
		t.Fatalf("days = %v, want just [0] (torn day 1 dropped)", days)
	}
	if probes, _ := dst.Totals(); probes != 12 {
		t.Errorf("probes = %d, want 12 (torn segment's counters dropped)", probes)
	}
}

// TestSnapshotIsolatedFromIngestion: a snapshot must not see days
// committed after it was taken.
func TestSnapshotIsolatedFromIngestion(t *testing.T) {
	c := core.NewCorpus(ioFixtureRIB())
	ingestFixtureDay(c, 0, 4)
	snap := c.Snapshot()
	want := corpusFingerprint(t, snap.Corpus())
	// Device 0 is re-observed on days 1 and 2, so live commits append
	// to the record whose observations the snapshot shares.
	dev := core.IID(fixtureAddr(0, 0).IID())
	frozen, ok := snap.Corpus().Lookup(dev)
	if !ok {
		t.Fatal("snapshot misses device 0")
	}
	wantSeries := fmt.Sprint(snap.Corpus().TimeSeries(dev))

	ingestFixtureDay(c, 1, 4)
	ingestFixtureDay(c, 2, 4)
	if got := corpusFingerprint(t, snap.Corpus()); got != want {
		t.Error("snapshot changed after further ingestion")
	}
	if days := snap.Days(); len(days) != 1 || days[0] != 0 {
		t.Errorf("snapshot days = %v, want [0]", days)
	}
	if days := c.Days(); len(days) != 3 {
		t.Errorf("live corpus days = %v, want 3 days", days)
	}
	// The address index resolves a day-0 responder, and the census
	// counts the fixture vendor.
	if _, ok := snap.Observed(fixtureAddr(0, 0)); !ok {
		t.Error("snapshot address index misses a day-0 responder")
	}
	census := snap.VendorCensus(ip6.Prefix{})
	if len(census) != 1 || census[0].Devices != 4 {
		t.Errorf("census = %+v, want one OUI with 4 devices", census)
	}

	// The shared record's derived views are those of day 0 alone, while
	// the live record has moved on to three /64s.
	if live, _ := c.Lookup(dev); live.PrefixCount() != 3 {
		t.Fatalf("live device 0 PrefixCount = %d, want 3", live.PrefixCount())
	}
	if n := frozen.PrefixCount(); n != 1 {
		t.Errorf("snapshot PrefixCount = %d after later days, want 1", n)
	}
	if asns := frozen.ASNs(); len(asns) != 1 || asns[0] != 8881 {
		t.Errorf("snapshot ASNs = %v, want [8881]", asns)
	}
	if got := fmt.Sprint(snap.Corpus().TimeSeries(dev)); got != wantSeries {
		t.Errorf("snapshot TimeSeries changed: %s, want %s", got, wantSeries)
	}
	// Negatives: a known IID under a /64 it answered from only after
	// the snapshot, one under a /64 it never answered from, and a
	// non-EUI-64 address.
	for _, a := range []ip6.Addr{fixtureAddr(0, 1), fixtureAddr(0, 5), ip6.MustParseAddr("2001:16b8:100::1")} {
		if iid, ok := snap.Observed(a); ok {
			t.Errorf("Observed(%s) = %016x, true; want false", a, uint64(iid))
		}
	}

	// A record with spare capacity: the next live append writes into
	// the backing array a snapshot taken now shares, past its end.
	snap2 := c.Snapshot()
	want2 := corpusFingerprint(t, snap2.Corpus())
	if live, _ := c.Lookup(dev); cap(live.Days) == len(live.Days) {
		t.Fatalf("device 0 has no spare capacity (len %d); the append below would not share memory", len(live.Days))
	}
	ingestFixtureDay(c, 3, 4)
	if got := corpusFingerprint(t, snap2.Corpus()); got != want2 {
		t.Error("second snapshot changed after an append into its shared array")
	}
	if _, ok := snap2.Observed(fixtureAddr(0, 3)); ok {
		t.Error("second snapshot resolves an address first seen after it was taken")
	}
}
