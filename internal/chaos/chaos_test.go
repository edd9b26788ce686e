package chaos

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubMember is a fake control plane recording /chaos bodies and serving
// a switchable /healthz code.
type stubMember struct {
	mu      sync.Mutex
	chaos   []map[string]any
	healthy bool
	srv     *httptest.Server
}

func newStubMember(t *testing.T) *stubMember {
	s := &stubMember{healthy: true}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /chaos", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		var body map[string]any
		json.Unmarshal(b, &body)
		s.mu.Lock()
		s.chaos = append(s.chaos, body)
		s.mu.Unlock()
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ok := s.healthy
		s.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write([]byte(`{"id": 1}`))
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stubMember) addr() string { return strings.TrimPrefix(s.srv.URL, "http://") }

func (s *stubMember) last(t *testing.T) map[string]any {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.chaos) == 0 {
		t.Fatal("no /chaos posts recorded")
	}
	return s.chaos[len(s.chaos)-1]
}

// sleepArgv returns a command that just sleeps, the minimal process to
// kill and restart.
func sleepArgv(t *testing.T) []string {
	t.Helper()
	bin, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary on PATH")
	}
	return []string{bin, "60"}
}

// TestKillAndRestartLifecycle exercises the crash-fault cycle against a
// real (trivial) process: alive, SIGKILL, dead, re-exec, alive again.
func TestKillAndRestartLifecycle(t *testing.T) {
	stub := newStubMember(t)
	p, err := Start(ProcSpec{ID: 3, Argv: sleepArgv(t), HTTP: stub.addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Kill() })

	if !p.Alive() {
		t.Fatal("not alive after Start")
	}
	if err := p.Restart(); err == nil {
		t.Fatal("Restart of a running member must fail")
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	if p.Alive() {
		t.Fatal("alive after Kill returned")
	}
	if err := p.Restart(); err != nil {
		t.Fatal(err)
	}
	if !p.Alive() {
		t.Fatal("not alive after Restart")
	}
	if err := p.WaitHealthy(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestTerminateEscalates: a process ignoring SIGTERM is killed past the
// deadline and Terminate reports the failure.
func TestTerminateEscalates(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh on PATH")
	}
	stub := newStubMember(t)
	p, err := Start(ProcSpec{ID: 4, HTTP: stub.addr(),
		Argv: []string{sh, "-c", "trap '' TERM; while :; do sleep 1; done"}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the trap install
	if err := p.Terminate(300 * time.Millisecond); err == nil {
		t.Fatal("Terminate of a TERM-ignoring process reported success")
	}
	if p.Alive() {
		t.Fatal("process survived the SIGKILL escalation")
	}
}

// TestImpairmentLevers checks SetLoss and Block compose a consistent
// blocked set and post it to the member's /chaos endpoint.
func TestImpairmentLevers(t *testing.T) {
	stubA := newStubMember(t)
	a, err := Start(ProcSpec{ID: 1, Argv: sleepArgv(t), HTTP: stubA.addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Kill() })

	if err := a.SetLoss(0.5); err != nil {
		t.Fatal(err)
	}
	if v := stubA.last(t)["loss"]; v != 0.5 {
		t.Fatalf("loss posted = %v", v)
	}
	if err := a.Block(7); err != nil {
		t.Fatal(err)
	}
	if err := a.Block(2); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(stubA.last(t)["blocked"]); string(got) != "[2,7]" {
		t.Fatalf("blocked posted = %s", got)
	}

	// A restart resets the impairment mirror: the next Block posts a set
	// without the pre-crash entries.
	if err := a.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := a.Block(9); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(stubA.last(t)["blocked"]); string(got) != "[9]" {
		t.Fatalf("blocked after restart = %s", got)
	}
}

// TestGroupPartitionLevers drives PartitionGroups/HealAll/SetLossAll
// against live /chaos endpoints: islands block exactly the foreign IDs,
// dead members are skipped rather than erred on, HealAll empties every
// survivor's blocked set, and SetLossAll programs one mesh-wide level.
func TestGroupPartitionLevers(t *testing.T) {
	stubs := make([]*stubMember, 4)
	procs := make([]*Proc, 4)
	for i := range procs {
		stubs[i] = newStubMember(t)
		p, err := Start(ProcSpec{ID: uint32(i + 1), Argv: sleepArgv(t), HTTP: stubs[i].addr()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Kill() })
		procs[i] = p
	}

	// Bisect {1,2} | {3,4}: each side blocks exactly the other side.
	if err := PartitionGroups(procs[:2], procs[2:]); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"[3,4]", "[3,4]", "[1,2]", "[1,2]"} {
		if got, _ := json.Marshal(stubs[i].last(t)["blocked"]); string(got) != want {
			t.Fatalf("member %d blocked = %s, want %s", i+1, got, want)
		}
	}

	// A dead member is skipped: re-partitioning into islands programs the
	// three survivors and does not fail on the corpse.
	if err := procs[3].Kill(); err != nil {
		t.Fatal(err)
	}
	stubs[3].mu.Lock()
	posted := len(stubs[3].chaos)
	stubs[3].mu.Unlock()
	if err := PartitionGroups([]*Proc{procs[0]}, []*Proc{procs[1]}, procs[2:]); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(stubs[0].last(t)["blocked"]); string(got) != "[2,3,4]" {
		t.Fatalf("island member 1 blocked = %s", got)
	}
	if got, _ := json.Marshal(stubs[2].last(t)["blocked"]); string(got) != "[1,2]" {
		t.Fatalf("island member 3 blocked = %s", got)
	}
	stubs[3].mu.Lock()
	after := len(stubs[3].chaos)
	stubs[3].mu.Unlock()
	if after != posted {
		t.Fatal("PartitionGroups posted to a dead member")
	}

	// HealAll clears every survivor's blocked set in one update each.
	if err := HealAll(procs...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got, _ := json.Marshal(stubs[i].last(t)["blocked"]); string(got) != "[]" {
			t.Fatalf("member %d blocked after HealAll = %s", i+1, got)
		}
	}

	// SetLossAll programs the same level everywhere that is still alive.
	if err := SetLossAll(0.3, procs...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v := stubs[i].last(t)["loss"]; v != 0.3 {
			t.Fatalf("member %d loss = %v", i+1, v)
		}
	}
	stubs[3].mu.Lock()
	final := len(stubs[3].chaos)
	stubs[3].mu.Unlock()
	if final != posted {
		t.Fatal("HealAll/SetLossAll posted to a dead member")
	}
}
