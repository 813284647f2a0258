package jobstore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qosrm/internal/faultinject"
	"qosrm/internal/scenario"
)

// testEvents is a small realistic lifecycle: one submitted job, one
// scenario started and finished.
func testEvents() []Event {
	specs := []scenario.Spec{{
		Name: "jnl-a",
		RM:   "RM3",
		Cores: []scenario.CoreSpec{
			{Jobs: []scenario.JobSpec{{App: "mcf", Work: 1e12}}},
		},
	}}
	return []Event{
		{Type: EventSubmit, Job: "j1", Key: "k-1", Specs: specs},
		{Type: EventStart, Job: "j1", Index: 0},
		{Type: EventFinish, Job: "j1", Index: 0, Report: &scenario.Report{Name: "jnl-a", RM: "RM3", Saving: 0.25}},
	}
}

func openT(t *testing.T, path string) (*Journal, *LoadInfo) {
	t.Helper()
	j, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, info
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, info := openT(t, path)
	if len(info.Events) != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("fresh journal loaded %+v", info)
	}
	want := testEvents()
	for _, ev := range want {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if j.Records() != len(want) {
		t.Fatalf("records %d, want %d", j.Records(), len(want))
	}
	j.Close()

	_, info2 := openT(t, path)
	if info2.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", info2.TruncatedBytes)
	}
	if !reflect.DeepEqual(info2.Events, want) {
		t.Fatalf("replayed events differ:\n got %+v\nwant %+v", info2.Events, want)
	}
}

// TestTornTailTruncated: a crash mid-append leaves a partial frame; the
// next Open must replay everything before it, cut the tail, and leave
// the journal appendable.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, _ := openT(t, path)
	want := testEvents()
	for _, ev := range want {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate the torn write: a frame header claiming a payload the
	// crash never wrote.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [frameSize + 3]byte
	binary.LittleEndian.PutUint32(torn[0:4], 500)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, info := openT(t, path)
	if info.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("truncated %d bytes, want %d", info.TruncatedBytes, len(torn))
	}
	if !reflect.DeepEqual(info.Events, want) {
		t.Fatalf("torn tail lost valid records:\n got %+v\nwant %+v", info.Events, want)
	}
	// The journal keeps working after the cut.
	extra := Event{Type: EventExpire, Job: "j1"}
	if err := j2.Append(extra); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, info3 := openT(t, path)
	if len(info3.Events) != len(want)+1 || info3.TruncatedBytes != 0 {
		t.Fatalf("post-truncation append did not persist cleanly: %d events, %d truncated",
			len(info3.Events), info3.TruncatedBytes)
	}
}

// TestCorruptRecordStopsReplay: a bit flip mid-journal invalidates that
// record's checksum; replay keeps the prefix and drops the rest.
func TestCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, _ := openT(t, path)
	want := testEvents()
	offsets := []int64{headerSize}
	for _, ev := range want {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, j.Size())
	}
	j.Close()

	// Flip one payload byte of the second record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[1]+frameSize] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, info := openT(t, path)
	if !reflect.DeepEqual(info.Events, want[:1]) {
		t.Fatalf("corrupt record did not stop replay at the prefix: got %d events", len(info.Events))
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("corruption not reported as truncation")
	}
}

func TestHeaderErrors(t *testing.T) {
	dir := t.TempDir()

	badMagic := filepath.Join(dir, "magic.jnl")
	if err := os.WriteFile(badMagic, []byte("NOTAJOURNALHEADER"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(badMagic); err == nil {
		t.Fatal("bad magic accepted")
	}

	// A version-bumped but otherwise valid header must fail with
	// ErrVersion so the daemon can distinguish "rotate the format" from
	// "disk corruption".
	bumped := filepath.Join(dir, "version.jnl")
	j, _, err := Open(bumped)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(bumped)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], Version+9)
	if err := os.WriteFile(bumped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(bumped); !errors.Is(err, ErrVersion) {
		t.Fatalf("version bump: %v, want ErrVersion", err)
	}
}

// TestAppendFailpointRollsBack: an injected torn write fails the append
// but leaves the journal at the previous record boundary — later
// appends land cleanly after it.
func TestAppendFailpointRollsBack(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, _ := openT(t, path)
	want := testEvents()
	if err := j.Append(want[0]); err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Enable("jobstore.append", "error*1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(want[1]); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed append returned %v", err)
	}
	// The failed append rolled back: the next one must succeed and the
	// reopened journal must hold exactly the two durable records.
	if err := j.Append(want[2]); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	j.Close()
	_, info := openT(t, path)
	if info.TruncatedBytes != 0 {
		t.Fatalf("rollback left %d torn bytes on disk", info.TruncatedBytes)
	}
	if !reflect.DeepEqual(info.Events, []Event{want[0], want[2]}) {
		t.Fatalf("unexpected replay after rollback: %+v", info.Events)
	}
}

// TestAppendBatch: a batch appends as consecutive records that replay
// in order, and a torn batch rolls back as a whole — none of its
// records survive, the journal stays appendable, and nothing is left
// torn on disk.
func TestAppendBatch(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, _ := openT(t, path)
	want := testEvents()
	if err := j.AppendBatch(want[:2]); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	size := j.Size()

	if err := faultinject.Enable("jobstore.append", "error*1"); err != nil {
		t.Fatal(err)
	}
	torn := []Event{{Type: EventExpire, Job: "x1"}, {Type: EventExpire, Job: "x2"}, {Type: EventExpire, Job: "x3"}}
	if err := j.AppendBatch(torn); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed batch append returned %v", err)
	}
	if j.Size() != size || j.Records() != 2 {
		t.Fatalf("torn batch left size %d (want %d), %d records (want 2)", j.Size(), size, j.Records())
	}
	if err := j.AppendBatch(want[2:]); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if j.Records() != len(want) {
		t.Fatalf("records %d, want %d", j.Records(), len(want))
	}
	j.Close()

	_, info := openT(t, path)
	if info.TruncatedBytes != 0 {
		t.Fatalf("rollback left %d torn bytes on disk", info.TruncatedBytes)
	}
	if !reflect.DeepEqual(info.Events, want) {
		t.Fatalf("replayed events differ:\n got %+v\nwant %+v", info.Events, want)
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, _ := openT(t, path)
	evs := testEvents()
	for _, ev := range evs {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	grown := j.Size()

	// Compact to just the submit record (the live set once start/finish
	// are superseded), then keep appending.
	live := []Event{evs[0]}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	if j.Records() != 1 {
		t.Fatalf("records after compact %d, want 1", j.Records())
	}
	if j.Size() >= grown {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", grown, j.Size())
	}
	if err := j.Append(evs[1]); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	j.Close()

	_, info := openT(t, path)
	if !reflect.DeepEqual(info.Events, []Event{evs[0], evs[1]}) {
		t.Fatalf("post-compact replay: %+v", info.Events)
	}
}

// TestCompactFailpointKeepsJournal: a failed rotation must leave the
// previous journal byte-for-byte intact.
func TestCompactFailpointKeepsJournal(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, _ := openT(t, path)
	evs := testEvents()
	for _, ev := range evs {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Enable("jobstore.compact", "error*1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact([]Event{evs[0]}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed compact returned %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("failed compaction modified the journal")
	}
	// And the journal still appends.
	if err := j.Append(Event{Type: EventExpire, Job: "j1"}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jnl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(Event{Type: EventExpire, Job: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}
}
