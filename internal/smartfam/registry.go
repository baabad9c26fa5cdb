package smartfam

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Module is one data-intensive processing module preloaded into (or
// uploaded to) a McSD node. Run receives the raw parameter payload from the
// host and returns the raw result payload.
type Module interface {
	Name() string
	Run(ctx context.Context, params []byte) ([]byte, error)
}

// ModuleFunc adapts a function to the Module interface.
type ModuleFunc struct {
	ModuleName string
	Fn         func(ctx context.Context, params []byte) ([]byte, error)
}

// Name returns the module name.
func (m ModuleFunc) Name() string { return m.ModuleName }

// Run invokes the function.
func (m ModuleFunc) Run(ctx context.Context, params []byte) ([]byte, error) {
	return m.Fn(ctx, params)
}

// ErrUnknownModule reports an invocation of a module that is not loaded.
var ErrUnknownModule = errors.New("smartfam: unknown module")

// Registry holds the modules loaded on one SD node. Registering a module
// creates its log file on the share ("when a new data-intensive module is
// preloaded to the McSD node, a corresponding log-file is created", §IV-A),
// which is also how the host discovers what it can call. The paper's §VI
// names module extensibility as future work; Register at runtime provides
// it. Safe for concurrent use.
type Registry struct {
	fs      FS
	mu      sync.Mutex
	modules map[string]Module
	// pending reserves names mid-Register, so the share I/O (log probe and
	// create) can run outside the lock without two concurrent Registers of
	// the same name both passing the duplicate check. Lookup sits on the
	// daemon's per-request hot path; it must never wait out a share RPC.
	pending map[string]bool
	// compactMu serialises CompactLog: one compactor per share.
	compactMu sync.Mutex
}

// NewRegistry returns an empty registry whose log files live on fsys.
func NewRegistry(fsys FS) *Registry {
	return &Registry{fs: fsys, modules: make(map[string]Module), pending: make(map[string]bool)}
}

// Register loads a module and creates its log file if it does not already
// exist. An existing log is kept as-is: a restarted daemon re-registering
// its modules must not truncate away requests appended while it was down
// (crash recovery depends on them surviving).
func (r *Registry) Register(m Module) error {
	name := m.Name()
	if name == "" {
		return errors.New("smartfam: module must have a name")
	}
	r.mu.Lock()
	if _, dup := r.modules[name]; dup || r.pending[name] {
		r.mu.Unlock()
		return fmt.Errorf("smartfam: module %q already registered", name)
	}
	r.pending[name] = true
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, name)
		r.mu.Unlock()
	}()
	if _, _, err := r.fs.Stat(LogName(name)); errors.Is(err, ErrNotExist) {
		if err := r.fs.Create(LogName(name)); err != nil {
			return fmt.Errorf("smartfam: creating log for %q: %w", name, err)
		}
	} else if err != nil {
		return fmt.Errorf("smartfam: probing log for %q: %w", name, err)
	}
	r.mu.Lock()
	r.modules[name] = m
	r.mu.Unlock()
	return nil
}

// Lookup returns the named module.
func (r *Registry) Lookup(name string) (Module, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.modules[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModule, name)
	}
	return m, nil
}

// Names returns the registered module names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.modules))
	for n := range r.modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
