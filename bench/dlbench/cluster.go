package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// paths locates the checkout the benchmark runs in. Everything the
// benchmark writes goes under bench/out, which git ignores.
type paths struct {
	root string // the dlsearch module: holds cmd/dlserve
	out  string // bench/out: binaries, data dirs, stderr logs, traces
}

// findPaths walks up from the working directory to the dlsearch
// module root (go run -C bench starts in bench/, go test in
// bench/dlbench/).
func findPaths() (paths, error) {
	dir, err := os.Getwd()
	if err != nil {
		return paths{}, err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module dlsearch" {
				p := paths{root: dir, out: filepath.Join(dir, "bench", "out")}
				return p, os.MkdirAll(p.out, 0o755)
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return paths{}, errors.New("dlbench: not inside a dlsearch checkout (no go.mod with 'module dlsearch' above the working directory)")
		}
		dir = parent
	}
}

// buildServer compiles cmd/dlserve once per dlbench invocation. Build
// time is not part of any metric.
func buildServer(p paths) (string, error) {
	bin := filepath.Join(p.out, "bin", "dlserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dlserve")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dlserve: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// children is every dlserve process alive, so that an interrupt or an
// early exit can kill them all.
var children = struct {
	sync.Mutex
	m map[*proc]bool
}{m: map[*proc]bool{}}

func killAllChildren() {
	children.Lock()
	ps := make([]*proc, 0, len(children.m))
	for p := range children.m {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// proc is one dlserve child process.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *os.File
	hwmKB  int64 // VmHWM read just before the process was killed
}

func startProc(bin, logPath, addr string, args ...string) (*proc, error) {
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = f
	cmd.Stdout = f
	// Should dlbench itself be killed, no deferred clean-up runs: let the
	// kernel take the children with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, addr: addr, stderr: f}
	children.Lock()
	children.m[p] = true
	children.Unlock()
	return p, nil
}

// kill sends SIGKILL and waits until the process has ended. Calling it
// twice is harmless.
func (p *proc) kill() {
	children.Lock()
	live := children.m[p]
	delete(children.m, p)
	children.Unlock()
	if !live {
		return
	}
	if kb, err := vmHWM(p.cmd.Process.Pid); err == nil {
		p.hwmKB = kb
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	_ = p.cmd.Wait()                          // the exit status of a killed child carries nothing
	p.stderr.Close()
}

// vmHWM reads a process's peak resident set size in KB.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// waitHealthy polls /healthz until the server answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, addr string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 20s: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// topology names the two cluster shapes of the benchmark.
type topology int

const (
	topoIR     topology = iota // coordinator -index lib + 2 durable nodes
	topoEngine                 // coordinator -engine ausopen -indexes Article.body + 2 durable nodes
)

const (
	irIndexName  = "lib"
	articleIndex = "Article.body"
	nodeCount    = 2
)

// searchIndex is the index name /search requests carry on a topology.
func (t topology) searchIndex() string {
	if t == topoEngine {
		return articleIndex
	}
	return irIndexName
}

// cluster is one booted topology of real dlserve processes.
type cluster struct {
	bin     string
	logDir  string
	dataDir string // parent of the nodes' data dirs; removed by close
	coord   *proc
	nodes   []*proc
	hc      *http.Client
	deadKB  []int64 // per node slot: peak RSS of the incarnation the recovery step killed
}

// bootCluster starts the nodes, then the coordinator, and returns once
// all answer /healthz. Replication, anti-entropy, the SLO controller
// and -mem-budget stay off: every flag not named here keeps dlserve's
// default (-wire binary, default -cache, R = 1).
func bootCluster(ctx context.Context, p paths, bin string, topo topology, tag string, hc *http.Client) (*cluster, error) {
	dataDir, err := os.MkdirTemp(p.out, "data-"+tag+"-")
	if err != nil {
		return nil, err
	}
	c := &cluster{bin: bin, logDir: p.out, dataDir: dataDir, hc: hc, deadKB: make([]int64, nodeCount)}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	var urls []string
	for i := 0; i < nodeCount; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		n, err := c.startNode(i, addr, tag)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		urls = append(urls, "http://"+addr)
	}
	for _, n := range c.nodes {
		if err := waitHealthy(ctx, hc, n.addr); err != nil {
			return nil, fmt.Errorf("node: %w", err)
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"coordinator", "-addr", addr, "-nodes", strings.Join(urls, ","), "-log-level", "warn"}
	if topo == topoEngine {
		args = append(args, "-engine", "ausopen", "-indexes", articleIndex)
	} else {
		args = append(args, "-index", irIndexName)
	}
	c.coord, err = startProc(bin, filepath.Join(c.logDir, "stderr-"+tag+"-coordinator.log"), addr, args...)
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(ctx, hc, addr); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	ok = true
	return c, nil
}

func (c *cluster) startNode(i int, addr, tag string) (*proc, error) {
	return startProc(c.bin, filepath.Join(c.logDir, fmt.Sprintf("stderr-%s-node%d.log", tag, i+1)), addr,
		"node", "-addr", addr, "-data-dir", filepath.Join(c.dataDir, "n"+strconv.Itoa(i+1)), "-log-level", "warn")
}

func (c *cluster) url(path string) string { return "http://" + c.coord.addr + path }

// crashNodes SIGKILLs every node and restarts it on the same address
// and data dir, returning once all answer /healthz again.
func (c *cluster) crashNodes(ctx context.Context, tag string) error {
	for i, n := range c.nodes {
		n.kill()
		c.deadKB[i] = max(c.deadKB[i], n.hwmKB)
	}
	for i, old := range c.nodes {
		n, err := c.startNode(i, old.addr, tag)
		if err != nil {
			return err
		}
		c.nodes[i] = n
	}
	for _, n := range c.nodes {
		if err := waitHealthy(ctx, c.hc, n.addr); err != nil {
			return fmt.Errorf("restarted node: %w", err)
		}
	}
	return nil
}

// rssPeakMB sums VmHWM over the cluster's dlserve processes. A node
// slot that was crashed and restarted counts its larger incarnation.
func (c *cluster) rssPeakMB() (float64, error) {
	total := int64(0)
	kb, err := vmHWM(c.coord.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	total += kb
	for i, n := range c.nodes {
		kb, err := vmHWM(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += max(kb, c.deadKB[i])
	}
	return float64(total) / 1024, nil
}

// dataBytes is the size of everything the nodes have stored.
func (c *cluster) dataBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(c.dataDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// close kills the processes and removes the data dirs.
func (c *cluster) close() {
	if c.coord != nil {
		c.coord.kill()
	}
	for _, n := range c.nodes {
		n.kill()
	}
	os.RemoveAll(c.dataDir)
}
