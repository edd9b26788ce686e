package custody

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"diffusion/internal/message"
)

// replayLog is journal recovery written the plain way, over bytes in
// memory: apply records from the start for as long as they frame and
// checksum, stop at the first that does not, and return the live items in
// admission order.
func replayLog(b []byte) []Item {
	var items []Item
	for len(b) >= recordHeaderSize {
		n := binary.BigEndian.Uint32(b)
		if n < 9 || n > maxRecordBody || uint64(len(b)-recordHeaderSize) < uint64(n) {
			break
		}
		body := b[recordHeaderSize : recordHeaderSize+int(n)]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[4:]) || (body[0] != opAccept && body[0] != opRelease) {
			break
		}
		id := message.ID{RandID: binary.BigEndian.Uint32(body[1:]), PktNum: binary.BigEndian.Uint32(body[5:])}
		at := -1
		for i, it := range items {
			if it.ID == id {
				at = i
			}
		}
		switch {
		case body[0] == opAccept && at < 0:
			items = append(items, Item{ID: id, Payload: body[9:]})
		case body[0] == opRelease && at >= 0:
			items = append(items[:at], items[at+1:]...)
		}
		b = b[recordHeaderSize+int(n):]
	}
	return items
}

func sameItems(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// FuzzStoreRecover writes arbitrary bytes as the custody journal — what a
// crash, a full disk or another program can leave at that path — and holds
// OpenStore to its contract: it never panics or fails, it returns exactly
// the items of the longest intact prefix (so nothing that did not pass its
// CRC), and reopening the log it rewrote returns the same items from a
// clean file. The seed corpus is the files under
// testdata/fuzz/FuzzStoreRecover, named for what each one is.
func FuzzStoreRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "custody.log")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		want := replayLog(log)
		for _, pass := range []string{"first", "second"} {
			s, got, err := OpenStore(path)
			if err != nil {
				t.Fatalf("%s open: %v", pass, err)
			}
			st := s.Stats()
			s.Close()
			if !sameItems(got, want) {
				t.Fatalf("%s open recovered %v, the intact prefix holds %v", pass, got, want)
			}
			if pass == "second" && (st.TailTruncated != 0 || st.Compactions != 0) {
				t.Fatalf("the rewritten log is not clean: %+v", st)
			}
		}
	})
}
