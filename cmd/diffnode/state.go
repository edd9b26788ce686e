package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// Crash recovery. Directed diffusion is soft state all the way down, so a
// restarted node needs nothing from the network to resume forwarding —
// interests re-flood, gradients rebuild. What the network cannot restore
// is the node's own role: which attribute keys it registered (numbering
// must match the rest of the cluster), what it subscribed to, what it
// publishes, and which in-network filters it runs. StateFile persists
// exactly that, rewritten atomically after every application-layer
// mutation, so SIGKILL followed by re-exec lands the node back in its
// role within one interest interval.
//
// Graceful shutdown deliberately does not rewrite the file after
// withdrawing the application layer: the snapshot on disk stays the
// node's last live role, which is what a restart should resume.

// persistedState is the JSON schema of a state file. All application
// state is kept in the paper's textual attribute notation, the same form
// the config file and the HTTP control plane use.
type persistedState struct {
	ID        uint32   `json:"id"`
	SavedAtMS int64    `json:"saved_at_ms"`
	Keys      []string `json:"keys,omitempty"`
	Subscribe []string `json:"subscribe,omitempty"`
	Publish   []string `json:"publish,omitempty"`
	Filters   []string `json:"filters,omitempty"`
}

// loadState reads a state file. found is false when the file simply does
// not exist (a cold boot, not an error). A file that exists but does not
// parse — a crash torn the bytes, disk corruption, an operator's stray
// edit — is quarantined by renaming it to path+".corrupt" so the node
// boots fresh from its config instead of crash-looping, while the bad
// bytes stay on disk for diagnosis. The returned error describes the
// corruption; the caller logs it and proceeds with a cold boot.
func loadState(path string) (persistedState, bool, error) {
	var st persistedState
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return st, false, nil
	}
	if err != nil {
		return st, false, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		quarantine := path + ".corrupt"
		if rerr := os.Rename(path, quarantine); rerr != nil {
			return persistedState{}, false,
				fmt.Errorf("state %s: %w (quarantine failed: %v)", path, err, rerr)
		}
		return persistedState{}, false,
			fmt.Errorf("state %s: %w (quarantined to %s)", path, err, quarantine)
	}
	return st, true, nil
}

// saveStateLocked snapshots the live application layer into the state
// file via write-to-temp-and-rename, so a crash mid-save leaves the
// previous snapshot intact. Loop-confined (reads node tables); the file
// is a few hundred bytes, so the write is cheap enough for the loop.
func (d *Daemon) saveStateLocked() {
	if d.cfg.StateFile == "" {
		return
	}
	st := persistedState{
		ID:        d.cfg.ID,
		SavedAtMS: time.Now().UnixMilli(),
		Keys:      d.bootKeys,
		Filters:   d.filterSpecs,
	}
	for _, h := range d.Node.ActiveSubscriptions() {
		if v, ok := d.Node.SubscriptionAttrs(h); ok {
			st.Subscribe = append(st.Subscribe, v.Notation())
		}
	}
	for _, h := range d.Node.ActivePublications() {
		if v, ok := d.Node.PublicationAttrs(h); ok {
			st.Publish = append(st.Publish, v.Notation())
		}
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		fmt.Fprintf(d.logw, "diffnode %d: state save: %v\n", d.cfg.ID, err)
		return
	}
	b = append(b, '\n')
	tmp := d.cfg.StateFile + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		fmt.Fprintf(d.logw, "diffnode %d: state save: %v\n", d.cfg.ID, err)
		return
	}
	if err := os.Rename(tmp, d.cfg.StateFile); err != nil {
		fmt.Fprintf(d.logw, "diffnode %d: state save: %v\n", d.cfg.ID, err)
		return
	}
	d.stateSaves.Inc()
	d.lastSaveMS.Set(float64(st.SavedAtMS))
}
