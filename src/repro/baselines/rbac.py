"""Flat RBAC baselines: RBAC0 and hierarchical RBAC1 (Sandhu et al. 1996).

These are the "other RBAC schemes" of the paper's related work [15]: roles
are *global, unparametrised* names; users are assigned to roles, and
permissions to roles.  RBAC1 adds a role hierarchy with permission
inheritance.

The contrast the benchmarks draw (Sect. 2 of the paper): pure RBAC
"associates privileges only with roles, whereas applications often require
more fine-grained access control".  To express "doctors may access the
records of patients registered with them" without parametrised roles, an
RBAC0 deployment needs one role *per doctor-patient relationship* (or one
permission per record per doctor), and exceptions ("Fred Smith may not
access my record") force even finer splitting.  The admin-cost meters make
that blow-up measurable.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

__all__ = ["Rbac0System", "Rbac1System"]

Permission = Tuple[str, str]  # (operation, object)


class Rbac0System:
    """RBAC0: users, roles, permissions, sessions — no hierarchy."""

    def __init__(self) -> None:
        self._user_roles: Dict[str, Set[str]] = {}
        self._role_permissions: Dict[str, Set[Permission]] = {}
        self._sessions: Dict[str, Set[str]] = {}
        self.admin_operations = 0

    # -- administration ----------------------------------------------------
    def add_role(self, role: str) -> None:
        if role in self._role_permissions:
            raise ValueError(f"role {role!r} already exists")
        self._role_permissions[role] = set()
        self.admin_operations += 1

    def assign_user(self, user: str, role: str) -> None:
        self._require_role(role)
        roles = self._user_roles.setdefault(user, set())
        if role not in roles:
            roles.add(role)
            self.admin_operations += 1

    def deassign_user(self, user: str, role: str) -> bool:
        roles = self._user_roles.get(user, set())
        if role in roles:
            roles.remove(role)
            self.admin_operations += 1
            # RBAC96: deassignment invalidates the role in live sessions.
            for active in self._sessions.values():
                active.discard(role)
            return True
        return False

    def grant_permission(self, role: str, operation: str, obj: str) -> None:
        self._require_role(role)
        permissions = self._role_permissions[role]
        permission = (operation, obj)
        if permission not in permissions:
            permissions.add(permission)
            self.admin_operations += 1

    def revoke_permission(self, role: str, operation: str, obj: str) -> bool:
        permissions = self._role_permissions.get(role, set())
        permission = (operation, obj)
        if permission in permissions:
            permissions.remove(permission)
            self.admin_operations += 1
            return True
        return False

    def remove_user(self, user: str) -> int:
        """Offboard a user; returns assignments removed."""
        roles = self._user_roles.pop(user, set())
        self.admin_operations += len(roles)
        self._sessions.pop(user, None)
        return len(roles)

    # -- sessions and checking ----------------------------------------------
    def start_session(self, user: str, roles: Set[str]) -> None:
        assigned = self._user_roles.get(user, set())
        illegal = roles - assigned
        if illegal:
            raise PermissionError(
                f"user {user!r} not assigned roles {sorted(illegal)}")
        self._sessions[user] = set(roles)

    def check(self, user: str, operation: str, obj: str) -> bool:
        active = self._sessions.get(user, set())
        permission = (operation, obj)
        return any(permission in self._role_permissions.get(role, set())
                   for role in self._effective_roles(active))

    def _effective_roles(self, active: Set[str]) -> Set[str]:
        return active

    def _require_role(self, role: str) -> None:
        if role not in self._role_permissions:
            raise KeyError(f"no role {role!r}")

    @property
    def role_count(self) -> int:
        return len(self._role_permissions)


class Rbac1System(Rbac0System):
    """RBAC1: RBAC0 plus a role hierarchy with permission inheritance.

    ``add_inheritance(senior, junior)`` lets the senior role exercise the
    junior's permissions.  The hierarchy must stay acyclic.
    """

    def __init__(self) -> None:
        super().__init__()
        self._juniors: Dict[str, Set[str]] = {}

    def add_inheritance(self, senior: str, junior: str) -> None:
        self._require_role(senior)
        self._require_role(junior)
        if senior == junior or senior in self._closure(junior):
            raise ValueError(
                f"inheritance {senior} -> {junior} would create a cycle")
        self._juniors.setdefault(senior, set()).add(junior)
        self.admin_operations += 1

    def _closure(self, role: str) -> Set[str]:
        seen: Set[str] = set()
        frontier = [role]
        while frontier:
            current = frontier.pop()
            for junior in self._juniors.get(current, set()):
                if junior not in seen:
                    seen.add(junior)
                    frontier.append(junior)
        return seen

    def _effective_roles(self, active: Set[str]) -> Set[str]:
        effective = set(active)
        for role in active:
            effective |= self._closure(role)
        return effective
