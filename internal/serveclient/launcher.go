package serveclient

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// Launcher starts ampserve processes and keeps every one it started,
// so Close reaps them on whatever path its caller leaves by. It is not
// safe for concurrent use.
type Launcher struct {
	Bin string    // the ampserve binary
	Dir string    // where the address files of ephemeral ports go
	Out io.Writer // the servers' stdout and stderr; nil discards them

	procs []*Proc
}

// Proc is one ampserve process, with a Client on its address.
type Proc struct {
	*Client
	name   string
	cmd    *exec.Cmd
	exited chan struct{}
	werr   error // cmd.Wait's result, set before exited closes
}

// Start runs the binary with args and an address: addr when it names a
// fixed host:port, else an ephemeral loopback port learned through
// -addrfile. It returns once /healthz answers 200; it fails when the
// process exits first or ctx ends, and then leaves no process behind.
func (l *Launcher) Start(ctx context.Context, name, addr string, args ...string) (*Proc, error) {
	addrFile := ""
	if addr == "" {
		addrFile = filepath.Join(l.Dir, name+".addr")
		if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		args = append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile}, args...)
	} else {
		args = append([]string{"-addr", addr}, args...)
	}
	cmd := exec.Command(l.Bin, args...)
	cmd.Stdout, cmd.Stderr = l.Out, l.Out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &Proc{name: name, cmd: cmd, exited: make(chan struct{})}
	l.procs = append(l.procs, p)
	go func() {
		p.werr = cmd.Wait()
		close(p.exited)
	}()
	if addr != "" {
		p.Client = New("http://" + addr)
	}
	for {
		if p.Client == nil { // ephemeral port: bound once the file appears
			if b, err := os.ReadFile(addrFile); err == nil {
				p.Client = New("http://" + string(bytes.TrimSpace(b)))
			}
		}
		if p.Client != nil {
			if _, err := p.get(ctx, "/healthz", nil); err == nil {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("%s exited before becoming healthy: %v", name, p.werr)
		case <-ctx.Done():
			p.Kill()
			return nil, fmt.Errorf("%s never became healthy: %w", name, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Close kills every process the launcher started that still runs.
func (l *Launcher) Close() {
	for _, p := range l.procs {
		p.Kill()
	}
}

// Kill is the chaos primitive: SIGKILL, no drain, no flush. It waits
// for the exit and is idempotent.
func (p *Proc) Kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Kill() // fails only when the process has just exited
	<-p.exited
}

// Stop drains the server with SIGTERM and requires exit status 0. A
// server still draining when ctx ends is killed.
func (p *Proc) Stop(ctx context.Context) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	select {
	case <-p.exited:
	case <-ctx.Done():
		p.Kill()
		return fmt.Errorf("%s did not drain: %w", p.name, ctx.Err())
	}
	if p.werr != nil {
		return fmt.Errorf("%s: unclean exit: %w", p.name, p.werr)
	}
	return nil
}

// FreeAddrs reserves n distinct loopback ports by binding and
// releasing them. Peers must know each other's ports before any node
// starts, so an ephemeral :0 bind cannot serve a fleet; the small
// release-to-reuse race is acceptable in a harness.
func FreeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close() // held until all n are bound, so the ports differ
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}
