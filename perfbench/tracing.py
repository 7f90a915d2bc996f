"""Spans recorded from the benchmark's own files, and the per-layer metrics.

The wrappers sit on the names the program looks up at call time.  The
modules use ``from``-imports, so e.g. ``estimate_volume`` is wrapped in
``probqos.integrate``, where ``integrate_uniform`` finds it, not in
``probqos.geometry``.  A wrapper only records: it passes the arguments and
the result through untouched, so a traced run returns what an untraced one
does (the runner checks this).
"""

from __future__ import annotations

import contextlib
import functools
import logging
import time

CHECK = "requirements.qos_check"
_PARAMETRIC_DENSITY = "profiles.density"


class NullTracer:
    """Stands in for the tracer in untraced runs: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Spans kept in memory: [name, start, end, parent, check, attrs].

    `parent` is the index of the enclosing span (-1 at the top) and `check`
    the index of the enclosing qos_check span, which identifies the check.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.restarts = 0

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        check = idx if name == CHECK else (self.spans[parent][4] if parent >= 0 else -1)
        span = [name, 0.0, 0.0, parent, check, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self, pq):
        """Wrap the program's layer boundaries; `uninstall` restores them."""
        geometry, profiles = pq.geometry, pq.profiles
        points = lambda a, kw, r: len(a[1])  # noqa: E731  (self, points)
        targets = [
            (pq.broker, "qos_check", CHECK, None),
            (pq.requirements, "integrate_uniform", "integrate.uniform",
             lambda a, kw, r: a[2]),  # (profile, region, k, ...)
            (pq.integrate, "estimate_volume", "geometry.volume", None),
            (pq.integrate, "rejection_sample", "sampling.rejection", None),
            (pq.integrate, "dikin_walk", "sampling.dikin", lambda a, kw, r: len(r)),
            (pq.sampling, "analytic_center", "geometry.analytic_center", None),
            (pq.sat, "dpll_sat", "sat.dpll", None),
            (pq.serialize, "load_profile", "serialize.load_profile", None),
            (geometry.HPolytope, "__init__", "geometry.hpolytope", None),
            (geometry.HPolytope, "contains_all", "geometry.contains_all",
             lambda a, kw, r: (len(r), int(r.sum()))),
            (pq.learning.KDEProfile, "log_density", "learning.log_density",
             lambda a, kw, r: len(a[1]) * a[0].m),
            (pq.rng.RngStream, "generator", "rng.generator", None),
        ]
        targets += [(cls, "density", _PARAMETRIC_DENSITY, points)
                    for cls in (profiles.IndependentProduct, profiles.CorrelatedTPRT,
                                profiles.UniformBox)]
        for owner, attr, name, attrs in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, attrs))
        handler = _RestartCounter(self)
        logging.getLogger("probqos.sampling").addHandler(handler)
        self._patched.append((None, None, handler))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if owner is None:
                logging.getLogger("probqos.sampling").removeHandler(original)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def to_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "check": c, "attrs": a}
                for n, s, e, p, c, a in self.spans]


class _RestartCounter(logging.Handler):
    """Counts Dikin-walk restarts from the probqos.sampling warning."""

    def __init__(self, tracer):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if "restarted from the analytic center" in str(record.msg) and record.args:
            self.tracer.restarts += int(record.args[0])


def layer_metrics(spans, setup_root: int, undecided: int, restarts: int,
                  overhead_share: float) -> dict:
    """Per-layer figures from one traced pass.

    Loop figures are per check (a qos_check, or one service inside select);
    set-up figures cover the spans under the set-up span `setup_root`.
    """
    n = len(spans)
    children_time = [0.0] * n
    in_setup = [False] * n
    for i, (name, start, end, parent, check, attrs) in enumerate(spans):
        if parent >= 0:
            children_time[parent] += end - start
            in_setup[i] = in_setup[parent] or parent == setup_root

    def pick(name, setup=False):
        return [i for i, s in enumerate(spans) if s[0] == name and in_setup[i] == setup]

    def total(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def self_time(idx):
        return sum(spans[i][2] - spans[i][1] - children_time[i] for i in idx)

    def under(idx, ancestor):
        out = []
        for i in idx:
            p = spans[i][3]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][3]
            if p >= 0:
                out.append(i)
        return out

    def ratio(a, b):
        return a / b if b else 0.0

    checks = len(pick(CHECK))
    per = lambda x: ratio(x, checks)  # noqa: E731
    contains = pick("geometry.contains_all")
    box_pts = under(contains, "geometry.volume")
    rej_pts = under(contains, "sampling.rejection")
    dikin = pick("sampling.dikin")
    dikin_samples = sum(spans[i][5] for i in dikin)
    density = [i for i in pick(_PARAMETRIC_DENSITY) if spans[i][4] >= 0]
    log_density = [i for i in pick("learning.log_density") if spans[i][4] >= 0]
    uniform = pick("integrate.uniform")
    fits = pick("learning.fit_cv")
    return {
        "geometry.contains_all_s": per(total(contains)),
        "geometry.contains_all_points": per(sum(spans[i][5][0] for i in contains)),
        "geometry.box_acceptance": ratio(sum(spans[i][5][1] for i in box_pts),
                                         sum(spans[i][5][0] for i in box_pts)),
        "geometry.volume_s": per(total(pick("geometry.volume"))),
        "sampling.rejection_s": per(total(pick("sampling.rejection"))),
        "sampling.rejection_acceptance": ratio(sum(spans[i][5][1] for i in rej_pts),
                                               sum(spans[i][5][0] for i in rej_pts)),
        "geometry.hpolytope_s": total(pick("geometry.hpolytope", setup=True)),
        "geometry.hpolytope_calls": len(pick("geometry.hpolytope", setup=True)),
        "requirements.parse_s": total(pick("requirements.parse", setup=True)),
        "broker.load_repository_s": total(pick("broker.load_repository", setup=True)),
        "serialize.load_profile_s": total(pick("serialize.load_profile", setup=True)),
        "geometry.analytic_center_s": per(total(pick("geometry.analytic_center"))),
        "sampling.dikin_s": per(total(dikin)),
        "sampling.dikin_samples": per(dikin_samples),
        "sampling.dikin_us_per_sample": 1e6 * ratio(total(dikin), dikin_samples),
        "sampling.dikin_restarts": per(restarts),
        "profiles.density_s": per(total(density)),
        "profiles.density_points": per(sum(spans[i][5] for i in density)),
        "learning.log_density_s": per(total(log_density)),
        "learning.kernel_evals": per(sum(spans[i][5] for i in log_density)),
        "learning.fit_cv_s": ratio(total(fits), len(fits)),
        "integrate.uniform_s": per(total(uniform)),
        "integrate.self_s": per(self_time(uniform)),
        "integrate.samples": per(sum(spans[i][5] for i in uniform)),
        "requirements.check_self_s": per(self_time(pick(CHECK))),
        "requirements.constraints_integrated": per(len(uniform)),
        "requirements.undecided": per(undecided),
        "sat.dpll_s": per(total(pick("sat.dpll"))),
        "sat.dpll_calls": per(len(pick("sat.dpll"))),
        "broker.select_self_s": per(self_time(pick("broker.select"))),
        "rng.generators": per(len(pick("rng.generator"))),
        "trace.overhead_share": overhead_share,
    }


# name -> unit, for BENCHMARK.json and the report
PER_LAYER_UNITS = {
    "geometry.contains_all_s": "s/check",
    "geometry.contains_all_points": "count/check",
    "geometry.box_acceptance": "ratio",
    "geometry.volume_s": "s/check",
    "sampling.rejection_s": "s/check",
    "sampling.rejection_acceptance": "ratio",
    "geometry.hpolytope_s": "s",
    "geometry.hpolytope_calls": "count",
    "requirements.parse_s": "s",
    "broker.load_repository_s": "s",
    "serialize.load_profile_s": "s",
    "geometry.analytic_center_s": "s/check",
    "sampling.dikin_s": "s/check",
    "sampling.dikin_samples": "count/check",
    "sampling.dikin_us_per_sample": "us",
    "sampling.dikin_restarts": "count/check",
    "profiles.density_s": "s/check",
    "profiles.density_points": "count/check",
    "learning.log_density_s": "s/check",
    "learning.kernel_evals": "count/check",
    "learning.fit_cv_s": "s/fit",
    "integrate.uniform_s": "s/check",
    "integrate.self_s": "s/check",
    "integrate.samples": "count/check",
    "requirements.check_self_s": "s/check",
    "requirements.constraints_integrated": "count/check",
    "requirements.undecided": "count/check",
    "sat.dpll_s": "s/check",
    "sat.dpll_calls": "count/check",
    "broker.select_self_s": "s/check",
    "rng.generators": "count/check",
    "trace.overhead_share": "ratio",
}
