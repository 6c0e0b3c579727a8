// Package access implements the access-control service of section 3.5:
// mapping credentials to roles between organisations, in the style of the
// event-based model the paper cites (Bacon, Moody and Yao, reference [2])
// "where roles are activated, based on credentials presented, and
// de-activated in response to events in the system or changes in the
// environment".
package access

import (
	"errors"
	"fmt"
	"sync"

	"nonrep/internal/credential"
	"nonrep/internal/id"
)

// Role names a virtual-enterprise role ("supplier", "manufacturer",
// "dealer", ...).
type Role string

// ErrDenied is returned when a party holds no active role permitting an
// operation.
var ErrDenied = errors.New("access: denied")

// EventKind classifies role-management events.
type EventKind int

// Event kinds.
const (
	// EventCredentialPresented activates the roles carried by a
	// presented (verified) credential — the exchange-of-credentials hook
	// of section 3.5.
	EventCredentialPresented EventKind = iota + 1
	// EventRevoked deactivates all of a party's roles after credential
	// revocation.
	EventRevoked
	// EventDisconnected deactivates all of a party's roles after the
	// party leaves the virtual enterprise.
	EventDisconnected
)

// Event is a role-management event.
type Event struct {
	Kind  EventKind
	Party id.Party
	Roles []Role
}

// Manager holds each remote party's currently active roles. Which roles
// a method needs is not its business: that is the method's deployment
// descriptor, which the container checks against Authorize. It is safe
// for concurrent use.
type Manager struct {
	mu     sync.RWMutex
	active map[id.Party]map[Role]bool
}

// NewManager creates an empty access-control manager.
func NewManager() *Manager {
	return &Manager{active: make(map[id.Party]map[Role]bool)}
}

// Activate grants roles to a party.
func (m *Manager) Activate(party id.Party, roles ...Role) {
	m.mu.Lock()
	defer m.mu.Unlock()
	set, ok := m.active[party]
	if !ok {
		set = make(map[Role]bool)
		m.active[party] = set
	}
	for _, r := range roles {
		set[r] = true
	}
}

// DeactivateAll withdraws every role from a party.
func (m *Manager) DeactivateAll(party id.Party) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, party)
}

// Roles lists a party's active roles.
func (m *Manager) Roles(party id.Party) []Role {
	m.mu.RLock()
	defer m.mu.RUnlock()
	set := m.active[party]
	out := make([]Role, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	return out
}

// Apply processes a role-management event.
func (m *Manager) Apply(ev Event) {
	switch ev.Kind {
	case EventCredentialPresented:
		m.Activate(ev.Party, ev.Roles...)
	case EventRevoked, EventDisconnected:
		m.DeactivateAll(ev.Party)
	}
}

// ActivateFromCertificate maps a verified certificate's embedded roles to
// active roles for its subject.
func (m *Manager) ActivateFromCertificate(cert *credential.Certificate) {
	roles := make([]Role, 0, len(cert.Roles))
	for _, r := range cert.Roles {
		roles = append(roles, Role(r))
	}
	m.Apply(Event{Kind: EventCredentialPresented, Party: cert.Subject, Roles: roles})
}

// Authorize checks that the party holds one of roles (any-of). No roles
// means open.
func (m *Manager) Authorize(party id.Party, roles ...Role) error {
	if len(roles) == 0 {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	active := m.active[party]
	for _, r := range roles {
		if active[r] {
			return nil
		}
	}
	return fmt.Errorf("%w: %s needs one of %v", ErrDenied, party, roles)
}
