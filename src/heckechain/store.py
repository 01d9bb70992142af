"""Content-checked JSON cache and canonical serialization.

Entries live one per file as ``kind_param1_param2....json`` holding a
versioned envelope around a canonical-JSON payload with a 64-bit blake2b
checksum.  Each writer writes its own temporary file and renames it over the
entry, so readers and concurrent writers only ever see whole entries and no
lock is needed.  ``docs/schemas.md`` documents the payload schemas.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from .arith import DomainError
from .planner import (
    GoodDihedral,
    LocalType,
    Plan,
    PrincipalSeries,
    Steinberg,
    Supercuspidal,
    SystemDescriptor,
)
from .mlt import MltVerdict

FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def checksum_of(payload) -> str:
    digest = hashlib.blake2b(canonical_json(payload).encode("utf-8"), digest_size=8)
    return digest.hexdigest()


def resolve_cache_dir(flag: str | None) -> str | None:
    """Cache directory with flag precedence over HECKECHAIN_CACHE_DIR; None
    disables caching."""
    if flag:
        return flag
    return os.environ.get("HECKECHAIN_CACHE_DIR") or None


class Store:
    """One-file-per-entry JSON cache; a None root disables it. A directory or
    entry the file system refuses is a DomainError naming its path."""

    def __init__(self, root: str | os.PathLike | None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise DomainError(f"cannot create cache directory {self.root}: {exc}") from exc

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path(self, kind: str, params) -> Path:
        name = "_".join([kind, *[str(p) for p in params]])
        return self.root / f"{name}.json"

    def get(self, kind: str, *params):
        """Payload for the key, or None when absent or caching is off."""
        if not self.enabled:
            return None
        path = self.path(kind, params)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise DomainError(f"cannot read cache entry {path}: {exc}") from exc
        try:
            entry = json.loads(raw)
        except ValueError as exc:
            raise DomainError(f"cache entry {path} is not valid JSON: {exc}") from exc
        if isinstance(entry, dict) and entry.get("format") != FORMAT_VERSION:
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            raise DomainError(f"cache entry {path} has no payload")
        if checksum_of(entry["payload"]) != entry.get("checksum"):
            raise DomainError(f"cache entry {path} failed its checksum")
        return entry["payload"]

    def put(self, kind: str, payload, *params):
        if not self.enabled:
            return None
        path = self.path(kind, params)
        entry = {
            "format": FORMAT_VERSION,
            "kind": kind,
            "params": list(params),
            "checksum": checksum_of(payload),
            "payload": payload,
        }
        text = json.dumps(entry, sort_keys=True, indent=1, ensure_ascii=False)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}.{threading.get_ident()}")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise DomainError(f"cannot write cache entry {path}: {exc}") from exc
        return path


# -- descriptor and plan serialization ---------------------------------------

_KIND_NAMES = {
    Steinberg: "steinberg",
    PrincipalSeries: "principal-series",
    Supercuspidal: "supercuspidal",
    GoodDihedral: "good-dihedral",
}


def local_type_to_dict(t: LocalType) -> dict:
    out = {"kind": _KIND_NAMES[type(t)]}
    if isinstance(t, (PrincipalSeries, Supercuspidal)):
        out["char_order"] = t.char_order
        out["wild"] = t.wild
    elif isinstance(t, GoodDihedral):
        out["p"] = t.p
        out["bound"] = t.bound
    return out


_TYPE_NAMES = {int: "an integer", bool: "a boolean", dict: "an object", list: "a list"}
_REQUIRED = object()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(d: dict, key: str, kind: type, default=_REQUIRED):
    """d[key], or the default when the key is absent, checked to be of the
    JSON type ``kind``; a boolean does not count as an integer."""
    if key not in d and default is not _REQUIRED:
        return default
    value = d[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise TypeError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def local_type_from_dict(d: dict) -> LocalType:
    if not isinstance(d, dict):
        raise TypeError(f"a local type must be an object, got {d!r}")
    kind = d.get("kind")
    if kind == "steinberg":
        return Steinberg()
    if kind in ("principal-series", "supercuspidal"):
        cls = PrincipalSeries if kind == "principal-series" else Supercuspidal
        return cls(char_order=_typed(d, "char_order", int, 1), wild=_typed(d, "wild", bool, False))
    if kind == "good-dihedral":
        return GoodDihedral(p=_typed(d, "p", int), bound=_typed(d, "bound", int))
    raise DomainError(f"unknown local type kind {kind!r}")


def descriptor_to_dict(desc: SystemDescriptor) -> dict:
    return {
        "weight": desc.weight,
        "conductor": {
            str(q): local_type_to_dict(t) for q, t in sorted(desc.conductor.items())
        },
        "dihedral": desc.dihedral,
        "field_degree": desc.field_degree,
        "coeff_degree": desc.coeff_degree,
        "twist_conductor": list(desc.twist_conductor),
    }


def descriptor_from_dict(d: dict) -> SystemDescriptor:
    try:
        if not isinstance(d, dict):
            raise TypeError(f"a descriptor must be an object, got {d!r}")
        twists = _typed(d, "twist_conductor", list, [])
        if not all(_is_int(t) for t in twists):
            raise TypeError(f"twist_conductor must list integers, got {twists!r}")
        return SystemDescriptor(
            weight=_typed(d, "weight", int),
            conductor={
                int(q): local_type_from_dict(t)
                for q, t in _typed(d, "conductor", dict, {}).items()
            },
            dihedral=_typed(d, "dihedral", bool, False),
            field_degree=_typed(d, "field_degree", int, 1),
            coeff_degree=_typed(d, "coeff_degree", int, 1),
            twist_conductor=tuple(twists),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed descriptor document: {exc}") from exc


def verdict_to_dict(v: MltVerdict | None) -> dict | None:
    if v is None:
        return None
    return {
        "theorem": v.theorem,
        "conditions": [[name, status] for name, status in v.conditions],
        "applicable": v.applicable,
        "assumption_used": v.assumption_used,
    }


def plan_to_dict(plan: Plan) -> dict:
    return {
        "start": descriptor_to_dict(plan.start),
        "bound": plan.bound,
        "pair": {"p": plan.pair.p, "q": plan.pair.q},
        "aux": plan.aux,
        "steps": [
            {
                "name": s.name,
                "ell": s.ell,
                "audit": s.audit,
                "verdict": verdict_to_dict(s.verdict),
                "after": descriptor_to_dict(s.after),
            }
            for s in plan.steps
        ],
        "final": descriptor_to_dict(plan.final),
    }
