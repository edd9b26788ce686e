package telemetry

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadJSONL feeds ReadJSONL what difftrace and diffscope read: files
// named on a command line and /spans bodies off the network. It must never
// panic, whatever the header claims, and the records it accepts must
// survive a write and a second read unchanged.
func FuzzReadJSONL(f *testing.F) {
	const hdr = `{"trace":"diffusion","version":1,"run":{"seed":1,"topology":"t","nodes":2},"records":%s}` + "\n"
	rec := `{"us":5,"node":1,"layer":"core","verb":"recv","class":"DATA","id":"0000000a:1","peer":2,"hops":1,"flow":7}` + "\n"
	for _, seed := range []string{
		strings.Replace(hdr, "%s", "1", 1) + rec,
		strings.Replace(hdr, "%s", "-1", 1) + rec,
		strings.Replace(hdr, "%s", "9223372036854775807", 1) + rec,
		strings.Replace(hdr, "%s", "1e300", 1),
		`{"trace":"diffusion","version":1,"ru`,
		`{"node":1,"boot":2,"start_unix_us":3,"spans":1}` + "\n" + rec,
		strings.Replace(hdr, "%s", "1", 1) + `{"us":` + strings.Repeat("1", 5<<20) + "}\n",
		strings.Replace(hdr, "%s", "2", 1) + rec + "\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		info, recs, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, info, recs); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		_, again, err := ReadJSONL(&buf)
		if err != nil || !slices.Equal(again, recs) {
			t.Fatalf("round trip: %v\nread  %+v\nagain %+v", err, recs, again)
		}
	})
}
