// Package chaos is a process-level fault-injection harness for live
// diffusion clusters. Where internal/fault perturbs the simulated
// network under a virtual clock, this package attacks real diffnode
// processes the way production does: SIGKILL and re-exec for crash
// faults, and each member's POST /chaos control endpoint for
// transport-level partitions and loss.
//
// A Proc wraps one member process. Kill delivers an unhandleable
// SIGKILL — no drain, no state save beyond what the daemon already
// persisted — and Restart re-execs the identical argv, so a member
// configured with -state-file exercises the daemon's warm-restart path
// exactly as a supervisor (systemd, a k8s kubelet) would. The
// impairment levers (SetLoss, Block, PartitionGroups) mirror the daemon's
// chaos endpoint and keep a local copy of the intended state so
// successive calls compose.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"sort"
	"sync"
	"syscall"
	"time"
)

// ProcSpec describes how to run and reach one member process.
type ProcSpec struct {
	// ID is the member's diffusion node ID (used in logs and PartitionGroups).
	ID uint32
	// Argv is the full command line, Argv[0] being the binary. Restart
	// re-execs it verbatim.
	Argv []string
	// HTTP is the member's control-plane address ("127.0.0.1:8001").
	HTTP string
	// Log receives the child's stdout and stderr (nil discards).
	Log io.Writer
}

// Proc is one managed member process.
type Proc struct {
	spec ProcSpec

	mu      sync.Mutex
	cmd     *exec.Cmd
	exited  chan struct{}
	exitErr error

	// Intended impairment, replayed to the member's /chaos endpoint on
	// every change. Reset when the process restarts (a fresh process
	// starts unimpaired).
	loss    float64
	blocked map[uint32]bool
}

// httpClient bounds every control-plane call the harness makes.
var httpClient = &http.Client{Timeout: 5 * time.Second}

// Start launches the member process.
func Start(spec ProcSpec) (*Proc, error) {
	if len(spec.Argv) == 0 {
		return nil, fmt.Errorf("chaos: member %d: empty argv", spec.ID)
	}
	p := &Proc{spec: spec, blocked: map[uint32]bool{}}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p, p.startLocked()
}

// startLocked execs the argv and watches for exit. Caller holds p.mu.
func (p *Proc) startLocked() error {
	cmd := exec.Command(p.spec.Argv[0], p.spec.Argv[1:]...)
	// Only wire pipes when a log sink was asked for: with a non-file
	// writer, Wait blocks until every pipe writer exits — including any
	// grandchildren surviving a SIGKILL of the member itself.
	if p.spec.Log != nil {
		cmd.Stdout = p.spec.Log
		cmd.Stderr = p.spec.Log
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("chaos: member %d: %w", p.spec.ID, err)
	}
	p.cmd = cmd
	exited := make(chan struct{})
	p.exited = exited
	go func() {
		err := cmd.Wait()
		p.mu.Lock()
		p.exitErr = err
		p.mu.Unlock()
		close(exited)
	}()
	return nil
}

// ID returns the member's node ID.
func (p *Proc) ID() uint32 { return p.spec.ID }

// HTTPAddr returns the member's control-plane address (see SetHTTP for
// members launched on ":0").
func (p *Proc) HTTPAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spec.HTTP
}

// Alive reports whether the process is currently running.
func (p *Proc) Alive() bool {
	p.mu.Lock()
	exited := p.exited
	p.mu.Unlock()
	if exited == nil {
		return false
	}
	select {
	case <-exited:
		return false
	default:
		return true
	}
}

// Kill delivers SIGKILL and waits for the process to be reaped. This is
// the crash fault: the member gets no chance to drain or save.
func (p *Proc) Kill() error {
	p.mu.Lock()
	cmd, exited := p.cmd, p.exited
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("chaos: member %d: not started", p.spec.ID)
	}
	cmd.Process.Kill()
	<-exited
	return nil
}

// Terminate delivers SIGTERM (the graceful path) and waits up to timeout
// for a clean exit, escalating to SIGKILL past the deadline.
func (p *Proc) Terminate(timeout time.Duration) error {
	p.mu.Lock()
	cmd, exited := p.cmd, p.exited
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("chaos: member %d: not started", p.spec.ID)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-exited:
	case <-time.After(timeout):
		cmd.Process.Kill()
		<-exited
		return fmt.Errorf("chaos: member %d: no exit within %v of SIGTERM", p.spec.ID, timeout)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exitErr != nil {
		return fmt.Errorf("chaos: member %d: exit: %w", p.spec.ID, p.exitErr)
	}
	return nil
}

// Restart re-execs the member's argv after it has exited. Impairment
// state is reset: the fresh process starts with no loss and no blocks.
func (p *Proc) Restart() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exited != nil {
		select {
		case <-p.exited:
		default:
			return fmt.Errorf("chaos: member %d: still running", p.spec.ID)
		}
	}
	p.loss = 0
	p.blocked = map[uint32]bool{}
	return p.startLocked()
}

// Healthz fetches the member's /healthz. The decoded body is returned
// even on 503 (an isolated node still reports per-neighbor state).
func (p *Proc) Healthz() (int, map[string]any, error) {
	resp, err := httpClient.Get(fmt.Sprintf("http://%s/healthz", p.HTTPAddr()))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var body map[string]any
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &body)
	return resp.StatusCode, body, nil
}

// WaitHealthy polls /healthz until it answers 200 or the timeout passes.
func (p *Proc) WaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		code, _, err := p.Healthz()
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: member %d: not healthy after %v (last: code=%d err=%v)",
				p.spec.ID, timeout, code, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// SetLoss sets the member's egress loss probability.
func (p *Proc) SetLoss(f float64) error {
	p.mu.Lock()
	p.loss = f
	p.mu.Unlock()
	return p.postChaos(map[string]any{"loss": f})
}

// Block adds peers to the member's blocked set (traffic dropped both
// ways), composing with earlier blocks.
func (p *Proc) Block(peers ...uint32) error {
	p.mu.Lock()
	for _, id := range peers {
		p.blocked[id] = true
	}
	set := p.blockedLocked()
	p.mu.Unlock()
	return p.postChaos(map[string]any{"blocked": set})
}

// blockedLocked renders the blocked set sorted; caller holds p.mu.
func (p *Proc) blockedLocked() []uint32 {
	set := make([]uint32, 0, len(p.blocked))
	for id := range p.blocked {
		set = append(set, id)
	}
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	return set
}

// postChaos sends one impairment update to the member.
func (p *Proc) postChaos(body map[string]any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := httpClient.Post(fmt.Sprintf("http://%s/chaos", p.HTTPAddr()),
		"application/json", bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("chaos: member %d: %w", p.spec.ID, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos: member %d: /chaos answered %d", p.spec.ID, resp.StatusCode)
	}
	return nil
}

// ClearBlocked empties the member's blocked set in one update,
// regardless of how the blocks accumulated.
func (p *Proc) ClearBlocked() error {
	p.mu.Lock()
	p.blocked = map[uint32]bool{}
	p.mu.Unlock()
	return p.postChaos(map[string]any{"blocked": []uint32{}})
}

// PartitionGroups splits the fleet into islands: every member of each
// group blocks every member of every other group, so no traffic crosses
// a group boundary while intra-group links stay intact. Members that are
// not running are skipped — a dead process has no endpoint to program,
// and the surviving side's blocks already drop both directions of every
// cross-boundary pair. Callers restarting a member inside a held
// partition rely on exactly that: Restart resets the fresh process to
// unimpaired, and the far side's blocks keep the split in force.
func PartitionGroups(groups ...[]*Proc) error {
	for gi, g := range groups {
		var foreign []uint32
		for gj, h := range groups {
			if gj == gi {
				continue
			}
			for _, q := range h {
				foreign = append(foreign, q.ID())
			}
		}
		if len(foreign) == 0 {
			continue
		}
		for _, p := range g {
			if !p.Alive() {
				continue
			}
			if err := p.Block(foreign...); err != nil {
				return err
			}
		}
	}
	return nil
}

// HealAll lifts every block on every running member, healing any
// partition regardless of how it was constructed. Loss settings are
// untouched — partitions and loss are independent levers.
func HealAll(procs ...*Proc) error {
	for _, p := range procs {
		if !p.Alive() {
			continue
		}
		if err := p.ClearBlocked(); err != nil {
			return err
		}
	}
	return nil
}

// SetLossAll sets the same egress loss probability on every running
// member — the mesh-wide level of a fleet loss ramp.
func SetLossAll(f float64, procs ...*Proc) error {
	for _, p := range procs {
		if !p.Alive() {
			continue
		}
		if err := p.SetLoss(f); err != nil {
			return err
		}
	}
	return nil
}
