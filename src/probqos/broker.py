"""Service selection: a repository of candidate profiles checked against one
requirement, with deterministic per-service seeds and margin-based ranking.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .integrate import DEFAULT_SAMPLES
from .profiles import QoSProfile
from .requirements import CheckReport, QoSRequirement, qos_check
from .rng import RngStream

__all__ = [
    "BrokerError",
    "ServiceEntry",
    "SelectionResult",
    "load_repository",
    "derive_service_seed",
    "requirement_hash",
    "select",
]


class BrokerError(Exception):
    pass


@dataclass(frozen=True)
class ServiceEntry:
    """One candidate service: its identifier, profile, and where it came from."""

    service_id: str
    profile: QoSProfile
    provenance: dict = field(default_factory=dict)  # {"source": "declared"|"learned", ...}


def load_repository(repo_dir) -> list:
    """Load every profile JSON in a directory as a ServiceEntry.

    The service_id is the filename stem; ids must be unique and all profiles
    must share one schema.
    """
    # Looked up on the serialize module at call time, so that a wrapper
    # installed there later (perfbench's tracer) is the one called.
    from .serialize import load_profile

    repo = Path(repo_dir)
    if not repo.is_dir():
        raise BrokerError(f"{repo_dir}: not a directory")
    paths = sorted(repo.glob("*.json"))
    if not paths:
        raise BrokerError(f"{repo_dir}: repository contains no profile JSON files")
    entries = []
    schema = None
    for path in paths:
        profile = load_profile(path)
        if schema is None:
            schema = profile.schema
        elif profile.schema != schema:
            raise BrokerError(
                f"{path.name}: schema {profile.schema.names} differs from "
                f"repository schema {schema.names}"
            )
        provenance = {"source": "declared", "path": path.name}
        if getattr(profile, "fit_info", None):
            provenance = {"source": "learned", "path": path.name,
                          "records": profile.m, "fit": profile.fit_info}
        entries.append(ServiceEntry(path.stem, profile, provenance))
    ids = [e.service_id for e in entries]
    if len(set(ids)) != len(ids):
        raise BrokerError("duplicate service ids in repository")
    return entries


def derive_service_seed(master_seed: int, service_id: str) -> int:
    """Stable per-service seed: the checks are independent yet reproducible."""
    digest = hashlib.sha256(f"{master_seed}:{service_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def requirement_hash(req: QoSRequirement) -> str:
    source = req.source if req.source is not None else repr(req.root)
    return hashlib.sha256(source.encode()).hexdigest()


_VERDICT_RANK = {"satisfied": 0, "indeterminate": 1, "violated": 2}


@dataclass(frozen=True)
class SelectionResult:
    """Ranked satisfying services (and, under a flag, indeterminate ones)."""

    ranked: tuple  # of (service_id, CheckReport)
    requirement_hash: str
    k: int
    seed: int
    confidence_z: float
    checked: tuple = ()  # every (service_id, CheckReport), ranking order

    def to_dict(self) -> dict:
        def row(service_id: str, report: CheckReport) -> dict:
            doc = report.to_dict()
            doc["service_id"] = service_id
            doc["seed"] = derive_service_seed(self.seed, service_id)
            return doc

        return {
            "selected": [row(sid, rep) for sid, rep in self.ranked],
            "all_services": [
                {"service_id": sid, "verdict": rep.verdict,
                 "min_margin": rep.min_margin}
                for sid, rep in self.checked
            ],
            "requirement_hash": self.requirement_hash,
            "config": {"k": self.k, "seed": self.seed,
                       "confidence_z": self.confidence_z},
        }


def _rank_key(item):
    service_id, report = item
    margin = report.min_margin
    # ascending sort: better verdict first, larger worst-case margin first
    return (_VERDICT_RANK[report.verdict],
            -(margin if margin is not None else float("inf")),
            service_id)


def select(entries, req: QoSRequirement, k: int = DEFAULT_SAMPLES,
           seed: int = 0, confidence_z: float = 3.0,
           include_indeterminate: bool = False) -> SelectionResult:
    """Check every service and rank the satisfying ones.

    Ordering: verdict, then minimum decision margin across constraints
    (descending), then service_id. Each service gets its own seed derived
    from (seed, service_id), so adding or removing services never perturbs
    the other checks.
    """
    if not entries:
        raise BrokerError("repository is empty")
    checked = []
    for entry in entries:
        stream = RngStream(derive_service_seed(seed, entry.service_id))
        report = qos_check(entry.profile, req, k=k, rng=stream,
                           confidence_z=confidence_z)
        checked.append((entry.service_id, report))
    checked.sort(key=_rank_key)
    keep = {"satisfied"} | ({"indeterminate"} if include_indeterminate else set())
    ranked = tuple((sid, rep) for sid, rep in checked if rep.verdict in keep)
    return SelectionResult(ranked=ranked, requirement_hash=requirement_hash(req),
                           k=k, seed=seed, confidence_z=confidence_z,
                           checked=tuple(checked))
