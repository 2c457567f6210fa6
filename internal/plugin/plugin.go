// Package plugin implements Hyrise's plugin architecture (paper §3):
// extensions live outside the database core, access all components through
// their public interfaces, and can be loaded and unloaded at runtime by the
// plugin manager. The paper's plugins are dynamic libraries; Go's dlopen
// equivalent is platform-fragile, so plugins register Go constructors in a
// registry instead (DESIGN.md substitution S5) — the architectural
// property (nothing in the core knows about any plugin) is preserved.
package plugin

import (
	"fmt"
	"sort"
	"sync"

	"hyrise/internal/pipeline"
)

// Plugin is the interface every plugin implements. Plugins are singletons:
// the manager ensures one live instance per name (paper §3.1).
type Plugin interface {
	// Start is called with the engine when the plugin is loaded.
	Start(engine *pipeline.Engine) error
	// Stop is called when the plugin is unloaded.
	Stop() error
}

// Factory constructs a fresh plugin instance ("newInstance()" in the
// paper's blueprint).
type Factory func() Plugin

var (
	registryMu sync.Mutex
	registry   = map[string]Factory{}
)

// Register adds a plugin factory to the global registry (called from the
// plugin's package init or from application code).
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = f
}

// Available lists the registered plugin names.
func Available() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Manager loads and unloads plugins for one engine (paper §3.1: "the
// Plugin Manager is responsible for administrative work, such as loading
// and unloading of plugins").
type Manager struct {
	engine *pipeline.Engine
	mu     sync.Mutex
	loaded map[string]Plugin
}

// NewManager creates a manager bound to an engine.
func NewManager(engine *pipeline.Engine) *Manager {
	return &Manager{engine: engine, loaded: make(map[string]Plugin)}
}

// Load instantiates and starts the named plugin.
func (m *Manager) Load(name string) error {
	registryMu.Lock()
	factory, ok := registry[name]
	registryMu.Unlock()
	if !ok {
		return fmt.Errorf("plugin: no plugin named %q registered", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.loaded[name]; dup {
		return fmt.Errorf("plugin: %q already loaded", name)
	}
	p := factory()
	if err := p.Start(m.engine); err != nil {
		return fmt.Errorf("plugin: start %q: %w", name, err)
	}
	m.loaded[name] = p
	return nil
}

// Unload stops and removes the named plugin.
func (m *Manager) Unload(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.loaded[name]
	if !ok {
		return fmt.Errorf("plugin: %q is not loaded", name)
	}
	if err := p.Stop(); err != nil {
		return fmt.Errorf("plugin: stop %q: %w", name, err)
	}
	delete(m.loaded, name)
	return nil
}

// Loaded lists the currently loaded plugin names.
func (m *Manager) Loaded() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.loaded))
	for n := range m.loaded {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns a loaded plugin by name.
func (m *Manager) Get(name string) (Plugin, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.loaded[name]
	return p, ok
}

// UnloadAll stops every loaded plugin (shutdown path).
func (m *Manager) UnloadAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, p := range m.loaded {
		_ = p.Stop()
		delete(m.loaded, name)
	}
}
