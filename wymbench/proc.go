package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// proc is one program process the benchmark started. Its GOMAXPROCS is
// pinned through the environment and recorded with the result.
type proc struct {
	Name       string
	GOMAXPROCS int
	CPU        int // the CPU the process is bound to, or -1
	cmd        *exec.Cmd
	done       chan struct{}
	waitErr    error
}

// startProc starts bin with args, its output going to logPath. A cpu of
// 0 or more binds the process to that CPU where the host allows it.
func startProc(name, bin string, args []string, gomaxprocs, cpu int, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// Should the benchmark die without stopping its programs, the kernel
	// kills them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = logf, logf
	p := &proc{Name: name, GOMAXPROCS: gomaxprocs, CPU: -1, cmd: cmd, done: make(chan struct{})}
	if cpu >= 0 {
		pinned, err := startOnCPU(cpu, cmd.Start)
		if pinned {
			p.CPU = cpu
		}
		if err != nil {
			logf.Close()
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
	} else if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain with SIGTERM, kills it if it has not
// exited within grace, and waits for it either way.
func (p *proc) stop(grace time.Duration) {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is caught by the select below
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// peakRSSMB is the process's peak resident set from its rusage; valid
// once the process has been waited for.
func (p *proc) peakRSSMB() float64 {
	<-p.done
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// runProc runs bin to completion with pinned GOMAXPROCS, capturing its
// output to logPath, and returns the process record for its rusage.
func runProc(ctx context.Context, name, bin string, args []string, gomaxprocs int, logPath string) (*proc, error) {
	p, err := startProc(name, bin, args, gomaxprocs, -1, logPath)
	if err != nil {
		return nil, err
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		p.stop(time.Second)
		return p, ctx.Err()
	}
	if p.waitErr != nil {
		tailLog, _ := readTail(logPath, 2000)
		return p, fmt.Errorf("%s %v: %w\n%s", name, args, p.waitErr, tailLog)
	}
	return p, nil
}

func readTail(path string, n int64) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	if st.Size() > n {
		if _, err := f.Seek(st.Size()-n, io.SeekStart); err != nil {
			return "", err
		}
	}
	raw, err := io.ReadAll(f)
	return string(raw), err
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// basePort is the first of the fixed loopback ports the programs listen
// on. Fixed addresses keep wym-router's hash ring, which places replicas
// by their URL, the same in every run, so the share of each batch that
// each replica gets does not change from run to run.
const basePort = 24310

// fixedAddr is the loopback address of port slot, or a free port when
// that one is taken.
func fixedAddr(slot int) (string, error) {
	addr := "127.0.0.1:" + strconv.Itoa(basePort+slot)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return freeAddr()
	}
	return addr, l.Close()
}

// waitReady polls url until ready accepts the body of a 200 response,
// the process exits, or timeout passes.
func waitReady(p *proc, url string, timeout time.Duration, ready func([]byte) bool) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready", p.Name)
		}
		resp, err := c.Get(url)
		if err == nil {
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && ready(raw) {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready at %s after %v", p.Name, url, timeout)
}

// serverReady accepts a wym-server /readyz body reporting "ready".
func serverReady(raw []byte) bool {
	var st struct {
		Status string `json:"status"`
	}
	return json.Unmarshal(raw, &st) == nil && st.Status == "ready"
}

// routerReady accepts a wym-router /readyz body whose replicas are all
// admitted to the ring.
func routerReady(want int) func([]byte) bool {
	return func(raw []byte) bool {
		var st struct {
			Replicas []struct {
				Admitted bool `json:"admitted"`
			} `json:"replicas"`
		}
		if json.Unmarshal(raw, &st) != nil || len(st.Replicas) != want {
			return false
		}
		for _, r := range st.Replicas {
			if !r.Admitted {
				return false
			}
		}
		return true
	}
}

// server is a started HTTP program with its public and admin addresses.
type server struct {
	*proc
	URL, Admin string
}

// startServer starts a wym-server or wym-router listening on the ports
// of slot (2*slot and 2*slot+1 past basePort) and waits until its /readyz
// passes ready. A port taken before the program binds it is retried on
// free ports.
func startServer(name, bin string, slot int, args func(addr, admin string) []string, gomaxprocs, cpu int, dir string, ready func([]byte) bool) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		pick := func(i int) (string, error) {
			if attempt > 0 {
				return freeAddr()
			}
			return fixedAddr(2*slot + i)
		}
		addr, err := pick(0)
		if err != nil {
			return nil, err
		}
		admin, err := pick(1)
		if err != nil {
			return nil, err
		}
		p, err := startProc(name, bin, args(addr, admin), gomaxprocs, cpu, filepath.Join(dir, name+".log"))
		if err != nil {
			return nil, err
		}
		s := &server{proc: p, URL: "http://" + addr, Admin: "http://" + admin}
		if lastErr = waitReady(p, s.URL+"/readyz", 30*time.Second, ready); lastErr == nil {
			return s, nil
		}
		p.stop(time.Second)
	}
	return nil, errors.Join(fmt.Errorf("start %s", name), lastErr)
}
