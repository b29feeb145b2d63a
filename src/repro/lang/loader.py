"""Loading policy files from disk into a :class:`PolicyUniverse`.

Deployments keep one ``.oasis`` policy file per service; the loader
parses, compiles and collects them, paths and text attached, so the
analysis tooling (and the CLI in :mod:`repro.lang.cli`) can work on the
whole system and point its findings at policy source.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.constraints import ConstraintRegistry
from ..core.exceptions import PolicyError
from ..core.policy import ServicePolicy
from ..core.types import ServiceId
from ..policy.ast import PolicyDocument
from ..policy.compiler import compile_document
from ..policy.parser import ParseError, parse_document
from .universe import PolicyUniverse

__all__ = ["POLICY_SUFFIX", "PolicyUnit", "load_policy_file",
           "load_policies", "load_unit", "load_units",
           "discover_policy_files"]

POLICY_SUFFIX = ".oasis"


@dataclass(frozen=True)
class PolicyUnit:
    """One loaded policy file: its path, raw text, AST and compiled form.

    The lint framework needs all four: the text for caret excerpts and
    suppression pragmas, the AST/compiled rules for their source spans,
    and the path to report findings against.
    """

    path: str
    text: str
    document: PolicyDocument
    policy: ServicePolicy

    @property
    def service(self) -> ServiceId:
        return self.policy.service


def load_unit(path: str,
              registry: Optional[ConstraintRegistry] = None,
              allow_unresolved: bool = False) -> PolicyUnit:
    """Parse and compile one policy file, keeping its source attached.

    Parse/compile errors are re-raised with ``error.path`` set so callers
    can report which file failed.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = parse_document(text)
        policy = compile_document(document, registry, allow_unresolved)
    except (ParseError, PolicyError) as error:
        error.path = path
        raise
    return PolicyUnit(path=path, text=text, document=document,
                      policy=policy)


def load_policy_file(path: str,
                     registry: Optional[ConstraintRegistry] = None,
                     allow_unresolved: bool = False) -> ServicePolicy:
    """Parse and compile one policy file."""
    return load_unit(path, registry, allow_unresolved).policy


def discover_policy_files(root: str) -> List[str]:
    """All ``*.oasis`` files under ``root`` (a file path passes through)."""
    if os.path.isfile(root):
        return [root]
    found = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if filename.endswith(POLICY_SUFFIX):
                found.append(os.path.join(dirpath, filename))
    return sorted(found)


def load_units(paths: Iterable[str],
               registry: Optional[ConstraintRegistry] = None,
               allow_unresolved: bool = False) -> List[PolicyUnit]:
    """Load many policy files as :class:`PolicyUnit` records.

    ``paths`` may mix files and directories (directories are scanned for
    ``*.oasis``).  Two files defining the same service is an error.
    """
    files: List[str] = []
    for path in paths:
        files.extend(discover_policy_files(path))
    units: List[PolicyUnit] = []
    seen: Dict[ServiceId, str] = {}
    for path in files:
        unit = load_unit(path, registry, allow_unresolved)
        if unit.service in seen:
            raise ValueError(
                f"{path}: service {unit.service} already defined by "
                f"another file")
        seen[unit.service] = path
        units.append(unit)
    return units


def load_policies(paths: Iterable[str],
                  registry: Optional[ConstraintRegistry] = None,
                  allow_unresolved: bool = False,
                  ) -> Tuple[Dict[ServiceId, ServicePolicy], PolicyUniverse]:
    """Load many policy files; returns ``(policies, universe)``.

    The universe keeps each service's file and text
    (:meth:`PolicyUniverse.from_units`), so its findings carry the same
    file/line positions ``cli lint`` reports.
    """
    units = load_units(paths, registry, allow_unresolved)
    policies = {unit.service: unit.policy for unit in units}
    return policies, PolicyUniverse.from_units(units)
