package serveclient

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The launcher tests start this test binary as a stand-in ampserve: it
// accepts ampserve's address flags, and -test.run selects
// TestHelperServer, which serves /healthz until SIGTERM.
var (
	helperAddr     = flag.String("addr", "", "stand-in server: listen address")
	helperAddrFile = flag.String("addrfile", "", "stand-in server: write the bound address here")
	helperExit     = flag.Int("exitcode", 0, "stand-in server: exit status after SIGTERM")
)

var helperArgs = []string{"-test.run=^TestHelperServer$"}

func TestHelperServer(t *testing.T) {
	if *helperAddr == "" {
		t.Skip("runs only as the launcher tests' stand-in server")
	}
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *helperAddr)
	if err != nil {
		os.Exit(2)
	}
	if *helperAddrFile != "" {
		if err := os.WriteFile(*helperAddrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			os.Exit(2)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	go func() { _ = http.Serve(ln, mux) }()
	<-term
	os.Exit(*helperExit)
}

func newLauncher(t *testing.T) *Launcher {
	l := &Launcher{Bin: os.Args[0], Dir: t.TempDir()}
	t.Cleanup(l.Close)
	return l
}

func exited(p *Proc) bool {
	select {
	case <-p.exited:
		return true
	default:
		return false
	}
}

// TestLauncherStopRequiresExitZero: Stop drains through SIGTERM and
// fails on a non-zero exit status.
func TestLauncherStopRequiresExitZero(t *testing.T) {
	l := newLauncher(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	clean, err := l.Start(ctx, "clean", "", helperArgs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Stop(ctx); err != nil {
		t.Fatalf("Stop of a server exiting 0 = %v", err)
	}
	dirty, err := l.Start(ctx, "dirty", "", append(helperArgs, "-exitcode", "3")...)
	if err != nil {
		t.Fatal(err)
	}
	if err := dirty.Stop(ctx); err == nil || !strings.Contains(err.Error(), "unclean exit") {
		t.Fatalf("Stop of a server exiting 3 = %v, want an unclean-exit error", err)
	}
}

// TestLauncherFixedAddrAndKill: a fixed address becomes the client's
// base, Kill is idempotent, and Close reaps what is still running.
func TestLauncherFixedAddrAndKill(t *testing.T) {
	l := newLauncher(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	addrs, err := FreeAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.Start(ctx, "a", addrs[0], helperArgs...)
	if err != nil {
		t.Fatal(err)
	}
	if a.base != "http://"+addrs[0] {
		t.Fatalf("base %q, want http://%s", a.base, addrs[0])
	}
	b, err := l.Start(ctx, "b", addrs[1], helperArgs...)
	if err != nil {
		t.Fatal(err)
	}
	a.Kill()
	a.Kill()
	if !exited(a) || exited(b) {
		t.Fatalf("after Kill(a): a exited %v, b exited %v; want true, false", exited(a), exited(b))
	}
	l.Close()
	if !exited(b) {
		t.Fatal("Close left b running")
	}
}

// TestLauncherStartFailsWhenServerExits: a process that dies before
// answering /healthz fails Start instead of hanging it.
func TestLauncherStartFailsWhenServerExits(t *testing.T) {
	l := newLauncher(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := l.Start(ctx, "bad", "", "-test.run=^$", "-no-such-flag"); err == nil ||
		!strings.Contains(err.Error(), "exited before becoming healthy") {
		t.Fatalf("Start of a failing binary = %v, want an early-exit error", err)
	}
}
