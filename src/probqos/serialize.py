"""Profile (de)serialization to the JSON interchange format.

Every profile document carries {"schema": [names...], "kind": ...} plus
family-specific parameters. Known kinds: "independent" (product of named
marginals), "correlated_tprt" (the coupled throughput/response-time family),
and "kde" (embedded observation matrix and bandwidth vector).
"""

from __future__ import annotations

import json

import numpy as np

from .learning import KDEProfile
from .profiles import (
    AttributeSchema,
    CorrelatedTPRT,
    GammaMarginal,
    GaussianMarginal,
    IndependentProduct,
    QoSProfile,
)

__all__ = [
    "SerializationError",
    "profile_to_dict",
    "profile_from_dict",
    "save_profile",
    "load_profile",
]


class SerializationError(Exception):
    pass


def _marginal_to_dict(marginal) -> dict:
    if isinstance(marginal, GaussianMarginal):
        return {"family": "gaussian", "mean": marginal.mean,
                "variance": marginal.variance}
    if isinstance(marginal, GammaMarginal):
        return {"family": "gamma", "shape": marginal.shape, "rate": marginal.rate}
    raise SerializationError(f"marginal {type(marginal).__name__} has no JSON form")


def _marginal_from_dict(doc: dict):
    family = doc.get("family")
    try:
        if family == "gaussian":
            return GaussianMarginal(float(doc["mean"]), float(doc["variance"]))
        if family == "gamma":
            return GammaMarginal(float(doc["shape"]), float(doc["rate"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed {family} marginal: {exc}")
    raise SerializationError(f"unknown marginal family {family!r}")


def profile_to_dict(profile: QoSProfile) -> dict:
    doc = {"schema": list(profile.schema.names)}
    if isinstance(profile, IndependentProduct):
        doc["kind"] = "independent"
        doc["marginals"] = [_marginal_to_dict(m) for m in profile.marginals]
        return doc
    if isinstance(profile, CorrelatedTPRT):
        doc["kind"] = "correlated_tprt"
        doc.update(mu=profile.mu, sigma2=profile.sigma2,
                   alpha=profile.alpha, beta=profile.beta)
        return doc
    if isinstance(profile, KDEProfile):
        doc["kind"] = "kde"
        doc["kernel"] = profile.kernel
        doc["bandwidths"] = [float(h) for h in profile.bandwidths]
        doc["observations"] = profile.observations.tolist()
        if profile.fit_info:
            doc["fit_info"] = profile.fit_info
        return doc
    raise SerializationError(f"profile {type(profile).__name__} has no JSON form")


def profile_from_dict(doc: dict) -> QoSProfile:
    if not isinstance(doc, dict):
        raise SerializationError("profile document must be a JSON object")
    try:
        names, kind = doc["schema"], doc["kind"]
    except KeyError as exc:
        raise SerializationError(f"profile document missing field: {exc}")
    if not isinstance(names, list):
        raise SerializationError(f"schema must be a list of names, not {type(names).__name__}")
    schema = AttributeSchema(names)
    try:
        if kind == "independent":
            marginals = doc["marginals"]
            if not (isinstance(marginals, list)
                    and all(isinstance(m, dict) for m in marginals)):
                raise SerializationError("marginals must be a list of objects")
            return IndependentProduct(schema, [_marginal_from_dict(m) for m in marginals])
        if kind == "correlated_tprt":
            return CorrelatedTPRT(float(doc["mu"]), float(doc["sigma2"]),
                                  float(doc["alpha"]), float(doc["beta"]),
                                  schema=schema)
        if kind == "kde":
            return KDEProfile(schema, np.asarray(doc["observations"], dtype=float),
                              str(doc["kernel"]),
                              np.asarray(doc["bandwidths"], dtype=float),
                              fit_info=doc.get("fit_info"))
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed {kind} profile: {exc}")
    raise SerializationError(f"unknown profile kind {kind!r}")


def save_profile(profile: QoSProfile, path) -> None:
    with open(path, "w") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_profile(path) -> QoSProfile:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: invalid JSON ({exc})")
    return profile_from_dict(doc)
