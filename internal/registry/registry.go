// Package registry is the one name table behind the simulator's design,
// hierarchy and workload name spaces. A Table keeps its entries in
// registration order, so an index is a stable handle, and resolves every
// registered spelling case-insensitively. Registration is rare and reads
// are hot (every chip build, handle String and sweep expansion), so an
// RWMutex guards each table, which is safe for concurrent use from
// experiment worker pools.
package registry

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

// Named is a registry entry: a name and extra spellings.
type Named interface {
	Name() string
	Aliases() []string
}

// Texts are the format strings of a table's errors.
type Texts struct {
	NoName       string // Add: the entry has no name
	EmptyAlias   string // Add: an alias is empty; %q is the entry's name
	Full         string // Add: the table holds its cap of entries
	Taken        string // Add: %q is a spelling another entry has, %s that entry's name
	Unregistered string // Get: %d is the index
	Unknown      string // Lookup: %[1]q is the spelling, %[2]s the names joined by " | ", %[3]s the same in lower case
}

// Table is a registry of named entries.
type Table[T Named] struct {
	mu      sync.RWMutex
	entries []T
	keys    map[string]int // each spelling, lowercased, to its entry's index
	max     int            // the cap on entries; 0 for none
	texts   Texts
}

// New returns an empty table of at most max entries (any number when max
// is 0) whose errors read texts.
func New[T Named](max int, texts Texts) *Table[T] {
	return &Table[T]{keys: map[string]int{}, max: max, texts: texts}
}

// Must returns h and panics on err, for lookups and registrations whose
// failure is a bug.
func Must[H any](h H, err error) H {
	if err != nil {
		panic(err)
	}
	return h
}

// Add registers e and returns its index. The name and aliases are trimmed
// and lowercased; the name must not be empty, nor any alias, and no
// spelling may belong to another entry.
func (t *Table[T]) Add(e T) (int, error) {
	name := strings.TrimSpace(e.Name())
	if name == "" {
		return 0, errors.New(t.texts.NoName)
	}
	keys := []string{strings.ToLower(name)}
	for _, a := range e.Aliases() {
		a = strings.ToLower(strings.TrimSpace(a))
		if a == "" {
			return 0, fmt.Errorf(t.texts.EmptyAlias, name)
		}
		if a != keys[0] {
			keys = append(keys, a)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.max > 0 && len(t.entries) >= t.max {
		return 0, errors.New(t.texts.Full)
	}
	for _, k := range keys {
		if i, taken := t.keys[k]; taken {
			return 0, fmt.Errorf(t.texts.Taken, k, t.entries[i].Name())
		}
	}
	for _, k := range keys {
		t.keys[k] = len(t.entries)
	}
	t.entries = append(t.entries, e)
	return len(t.entries) - 1, nil
}

// Get returns the entry at index i.
func (t *Table[T]) Get(i int) (T, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.entries) {
		var zero T
		return zero, fmt.Errorf(t.texts.Unregistered, i)
	}
	return t.entries[i], nil
}

// Len returns the number of entries.
func (t *Table[T]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// All returns a copy of the entries in registration order.
func (t *Table[T]) All() []T {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clone(t.entries)
}

// Names returns the entries' names in registration order.
func (t *Table[T]) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, len(t.entries))
	for i, e := range t.entries {
		names[i] = e.Name()
	}
	return names
}

// Lookup resolves any registered spelling, trimmed and case-insensitively,
// to its entry and the entry's index.
func (t *Table[T]) Lookup(s string) (e T, i int, err error) {
	t.mu.RLock()
	i, ok := t.keys[strings.ToLower(strings.TrimSpace(s))]
	if ok {
		e = t.entries[i]
	}
	t.mu.RUnlock()
	if !ok {
		names := strings.Join(t.Names(), " | ")
		return e, 0, fmt.Errorf(t.texts.Unknown, s, names, strings.ToLower(names))
	}
	return e, i, nil
}

// Clone returns an independent copy of the table, so that a test can
// register throwaway entries and then put the original back.
func (t *Table[T]) Clone() *Table[T] {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return &Table[T]{entries: slices.Clone(t.entries), keys: maps.Clone(t.keys), max: t.max, texts: t.texts}
}
