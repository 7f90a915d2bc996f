"""The benchmark's three workloads: seeded inputs, set-up and work units.

Every input is drawn from the workload seed on the benchmark's own numpy
streams; the program sees only the generated files, requirement texts and
record arrays.  Each workload is a closed loop with one client: a unit of
work starts only when the previous one has returned.

  select-parametric  one ``broker.select`` per fixture requirement over a
                     repository of 16 parametric services at k = 200 000
  kde-learn-check    draw 1000 records, learn a Scott KDE and a CV KDE,
                     check the conjunction on both at k = 10 000
  thin-band          check a fresh thin diagonal band at k = 2 000; box
                     acceptance is 1-3 %, so the Dikin walk runs
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracle import Region, reference_probability

SCHEMA = ("TP", "RT")


# The fixture regions and the four bounded fixture requirements
# (fixtures/requirements/*.qreq), copied so that a change to the fixtures
# cannot change the benchmark's inputs.
R_GOOD = Region([(-1, 0, -60), (1, 0, 100), (0, -1, 0), (0, 1, 300), (-5, 1, -100)],
                 "60 <= TP && TP <= 100 && 0 <= RT && RT <= 300 && 5 * TP - RT >= 100")
R_BAD = Region([(-1, 0, 0), (1, 0, 40), (0, -1, -300), (0, 1, 1000)],
                "0 <= TP && TP <= 40 && 300 <= RT && RT <= 1000")
R_BOX = Region([(-1, 0, -60), (1, 0, 100), (0, -1, 0), (0, 1, 300)],
                "60 <= TP && TP <= 100 && 0 <= RT && RT <= 300")


@dataclass(frozen=True)
class RequirementSpec:
    """A requirement as text plus what the oracle needs to judge it.

    `constraints` lists (region, p_min, p_max) in the order the program
    abstracts them (first occurrence in the text); `formula(truths, vars)`
    is the requirement as a predicate over those constraint truths and the
    `n_vars` free propositional variables.
    """

    name: str
    text: str
    constraints: tuple
    n_vars: int
    formula: Callable


def _p(region, lo, hi):
    def bound(v, default):
        return "_" if v == default else repr(v)
    return f"P[{region.text}] in [{bound(lo, 0.0)}, {bound(hi, 1.0)}]"


FIXTURE_REQUIREMENTS = (
    RequirementSpec("conjunction",
                    f"{_p(R_GOOD, 0.6, 1.0)} && {_p(R_BAD, 0.0, 0.3)}",
                    ((R_GOOD, 0.6, 1.0), (R_BAD, 0.0, 0.3)), 0,
                    lambda t, v: t[0] and t[1]),
    RequirementSpec("good_min", _p(R_GOOD, 0.6, 1.0), ((R_GOOD, 0.6, 1.0),), 0,
                    lambda t, v: t[0]),
    RequirementSpec("box_band", _p(R_BOX, 0.1, 0.2), ((R_BOX, 0.1, 0.2),), 0,
                    lambda t, v: t[0]),
    RequirementSpec("two_scenario",
                    f"vars p1 p2 ; ({_p(R_GOOD, 0.6, 1.0)} || {_p(R_BAD, 0.2, 1.0)})"
                    f" && (p1 <-> {_p(R_GOOD, 0.6, 1.0)})"
                    f" && (p2 <-> {_p(R_BAD, 0.2, 1.0)})",
                    ((R_GOOD, 0.6, 1.0), (R_BAD, 0.2, 1.0)), 2,
                    lambda t, v: (t[0] or t[1]) and v[0] == t[0] and v[1] == t[1]),
)
CONJUNCTION = FIXTURE_REQUIREMENTS[0]


@dataclass
class Check:
    """One qos_check: its inputs, the program's report and its wall time."""

    id: str
    spec: RequirementSpec
    profile: object
    doc: "dict | None"  # parameter document; None for a learned KDE
    seconds: float = 0.0
    report: object = None
    error: "str | None" = None
    reference: "tuple | None" = None  # (probabilities, verdict) from the oracle

    def signature(self):
        """Everything the program returned, for exact run-to-run comparison."""
        if self.report is None:
            return (self.id, self.error)
        rows = tuple((r.variable, r.estimate, r.std_error, r.truth, r.margin)
                     for r in self.report.constraint_table)
        witness = tuple(sorted(self.report.witness.items())) if self.report.witness else None
        return (self.id, self.report.verdict, witness, rows)


def _independent(tp_mean, tp_var, rt_shape, rt_rate):
    return {"schema": list(SCHEMA), "kind": "independent",
            "marginals": [{"family": "gaussian", "mean": tp_mean, "variance": tp_var},
                          {"family": "gamma", "shape": rt_shape, "rate": rt_rate}]}


def _correlated(mu, sigma2, alpha, beta):
    return {"schema": list(SCHEMA), "kind": "correlated_tprt",
            "mu": mu, "sigma2": sigma2, "alpha": alpha, "beta": beta}


def _jitter(gen, doc):
    """Perturb a fixture profile's parameters by a few percent."""
    if doc["kind"] == "independent":
        tp, rt = doc["marginals"]
        return _independent(tp["mean"] * (1 + 0.03 * gen.standard_normal()),
                            tp["variance"] * np.exp(0.1 * gen.standard_normal()),
                            rt["shape"] * np.exp(0.03 * gen.standard_normal()),
                            rt["rate"] * np.exp(0.03 * gen.standard_normal()))
    return _correlated(doc["mu"] * (1 + 0.03 * gen.standard_normal()),
                       doc["sigma2"] * np.exp(0.1 * gen.standard_normal()),
                       doc["alpha"] * np.exp(0.03 * gen.standard_normal()),
                       doc["beta"] * np.exp(0.03 * gen.standard_normal()))


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _program_seed(gen) -> int:
    return int(gen.integers(2 ** 62))


class Workload:
    """Inputs from a seed, program set-up, and numbered units of work."""

    name = ""
    closed_unit = 1  # the loop stops only after a whole group of this many units

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self, pq, tracer):
        """Program-side set-up before the first check; returns the state."""
        raise NotImplementedError

    def run_unit(self, pq, state, i: int, tracer) -> list:
        """Run unit i and return its Checks."""
        raise NotImplementedError

    def check_times(self, checks) -> list:
        """The timing samples behind check_s_p50 and check_s_tail."""
        return [c.seconds for c in checks if c.report is not None]

    def _check(self, pq, tracer, check, req, **kwargs):
        with tracer.span("requirements.qos_check"):
            t0 = time.perf_counter()
            try:
                check.report = pq.qos_check(check.profile, req, **kwargs)
            except Exception as exc:  # a failed check is counted, not fatal
                check.error = f"{type(exc).__name__}: {exc}"
            check.seconds = time.perf_counter() - t0
        return check


# ---------------------------------------------------------------------------
# select-parametric
# ---------------------------------------------------------------------------

FIXTURE_PROFILES = {
    "indep": _independent(50.0, 300.0, 3.0, 0.01),
    "strong": _independent(90.0, 100.0, 3.0, 0.02),
    "corr": _correlated(50.0, 300.0, 3.0, 0.01),
    "bad": _independent(25.0, 100.0, 3.0, 0.006),
}

# Finite probability bounds that the fixture requirements put on each region.
_BOUNDS = {R_GOOD.key: (0.6,), R_BAD.key: (0.2, 0.3), R_BOX.key: (0.1, 0.2)}

# Jittered services keep this far from every bound, so that only the services
# built to sit on a bound are near one and the verdict mix is set by design.
_CLEARANCE = 0.01

# Near-bound services are tuned to bound + u * spread, u ~ U(-1, 1), with the
# spread about one reported s.e. at k = 200 000 (0.0016 on the good region at
# P = 0.6, 0.0005 on the box at P = 0.2): most of their checks come out
# indeterminate and run the undecided SAT enumeration.
_NEAR_SPREAD = {R_GOOD.key: 0.0015, R_BOX.key: 0.0005}


def _bisect(f, lo, hi, target, iters=60):
    """Solve f(x) = target for f monotone on [lo, hi]."""
    flo = f(lo) - target
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid) - target
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class SelectParametric(Workload):
    name = "select-parametric"
    closed_unit = len(FIXTURE_REQUIREMENTS)
    k = 200_000
    services = 16

    def __init__(self, seed, workdir, pq):
        super().__init__(seed, workdir)
        gen = np.random.default_rng([seed, 1])
        self.repo_dir = workdir / "repository"
        self.repo_dir.mkdir()
        docs = {}
        for family, base in FIXTURE_PROFILES.items():
            for j in range(3):
                docs[f"{family}{j}"] = self._clear_jitter(gen, base, pq)
        docs.update(self._near_bound(gen, pq))
        # Degraded: TP sits at 20 with sd 0.8, so the good-region density
        # underflows to 0 and the estimate is 0 with s.e. 0.
        docs["degraded"] = _independent(20.0 + gen.uniform(-1, 1), 0.64, 3.0, 0.006)
        assert len(docs) == self.services
        self.docs = docs
        for sid, doc in docs.items():
            _write_json(self.repo_dir / f"{sid}.json", doc)

    def _clear_jitter(self, gen, base, pq):
        while True:
            doc = _jitter(gen, base)
            profile = pq.profile_from_dict(doc)
            if all(abs(reference_probability(profile, doc, region, pq) - b) >= _CLEARANCE
                   for region in (R_GOOD, R_BAD, R_BOX) for b in _BOUNDS[region.key]):
                return doc

    def _near_bound(self, gen, pq):
        """Services tuned so that one region's probability sits on a bound."""
        def tuned(make, region, bound, lo, hi):
            target = bound + gen.uniform(-1, 1) * _NEAR_SPREAD[region.key]

            def prob(x):
                doc = make(x)
                return reference_probability(pq.profile_from_dict(doc), doc, region, pq)
            return make(_bisect(prob, lo, hi, target))

        return {
            "near_good_indep": tuned(lambda m: _independent(m, 100.0, 3.0, 0.02),
                                     R_GOOD, 0.6, 55.0, 75.0),
            "near_good_corr": tuned(lambda m: _correlated(m, 100.0, 3.0, 0.02),
                                    R_GOOD, 0.6, 55.0, 75.0),
            "near_box": tuned(lambda r: _independent(50.0, 300.0, 3.0, r),
                              R_BOX, 0.2, 0.008, 0.03),
        }

    def setup(self, pq, tracer):
        with tracer.span("broker.load_repository"):
            entries = pq.load_repository(self.repo_dir)
        schema = entries[0].profile.schema
        with tracer.span("requirements.parse"):
            reqs = [pq.parse_requirement(spec.text, schema) for spec in FIXTURE_REQUIREMENTS]
        return entries, reqs

    def check_times(self, checks):
        """Wall time per service per round: the sum of its four qos_checks.

        Single qos_check times fall in four clusters (one or two constraints,
        independent or correlated profile) and the requirement mix puts half
        of the checks on each side of the middle gap, so their median would
        jump between clusters from run to run.
        """
        per_service = {}
        for c in checks:
            if c.report is not None:
                rnd, _, sid = c.id.split("/")
                per_service[rnd, sid] = per_service.get((rnd, sid), 0.0) + c.seconds
        return list(per_service.values())

    def master_seed(self, rnd: int) -> int:
        return _program_seed(np.random.default_rng([self.seed, 2, rnd]))

    def run_unit(self, pq, state, i, tracer):
        entries, reqs = state
        rnd, j = divmod(i, len(FIXTURE_REQUIREMENTS))
        spec = FIXTURE_REQUIREMENTS[j]
        times = []
        inner = pq.broker.qos_check

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        checks = [Check(f"r{rnd}/{spec.name}/{e.service_id}", spec, e.profile,
                        self.docs[e.service_id]) for e in entries]
        pq.broker.qos_check = timed
        try:
            with tracer.span("broker.select"):
                result = pq.select(entries, reqs[j], k=self.k, seed=self.master_seed(rnd))
        except Exception as exc:  # a failed select fails all of its checks
            for c in checks:
                c.error = f"{type(exc).__name__}: {exc}"
            return checks
        finally:
            pq.broker.qos_check = inner
        reports = dict(result.checked)
        for c, e, seconds in zip(checks, entries, times):
            c.report = reports[e.service_id]
            c.seconds = seconds
        return checks


# ---------------------------------------------------------------------------
# kde-learn-check
# ---------------------------------------------------------------------------

class KdeLearnCheck(Workload):
    name = "kde-learn-check"
    k = 10_000
    m = 1000

    def __init__(self, seed, workdir, pq):
        super().__init__(seed, workdir)
        # The correlated fixture with a more skewed response time (alpha 1.5,
        # mean RT 300): on such data the CV fit picks the Laplace kernel, so
        # half of the checks run each kernel.  The records are what the seed
        # varies; a fixed source keeps se_mean steady across seeds.
        self.doc = _correlated(50.0, 300.0, 1.5, 0.005)
        self.learn_seconds = []
        self.records_csv = workdir / "records.csv"
        rows = self.records(0)
        self.records_csv.write_text(
            "TP,RT\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows.tolist()))

    def records(self, i: int) -> np.ndarray:
        """m draws from the source profile, on the benchmark's own stream."""
        gen = np.random.default_rng([self.seed, 3, i])
        mu, s2, alpha, beta = (self.doc[k] for k in ("mu", "sigma2", "alpha", "beta"))
        tp = np.empty(self.m)
        got = 0
        while got < self.m:
            draw = gen.normal(mu, np.sqrt(s2), self.m - got)
            keep = draw[alpha - (draw - mu) / mu > 0]
            tp[got:got + keep.size] = keep
            got += keep.size
        rt = gen.gamma(alpha - (tp - mu) / mu) / beta
        return np.column_stack([tp, rt])

    def setup(self, pq, tracer):
        records = pq.QoSRecordSet.from_csv(self.records_csv)
        with tracer.span("requirements.parse"):
            req = pq.parse_requirement(CONJUNCTION.text, records.schema)
        return records, req

    def run_unit(self, pq, state, i, tracer):
        first, req = state
        gen = np.random.default_rng([self.seed, 4, i])
        records = first if i == 0 else pq.QoSRecordSet(first.schema, self.records(i))
        t0 = time.perf_counter()
        scott = pq.KDEProfile(records.schema, records, "gaussian",
                              pq.bandwidth_scott(records))
        with tracer.span("learning.fit_cv"):
            cv = pq.fit_kde_cv(records, rng=pq.RngStream(_program_seed(gen)))
        self.learn_seconds.append(time.perf_counter() - t0)
        checks = []
        for label, kde in (("scott", scott), ("cv", cv)):
            check = Check(f"i{i}/{label}-{kde.kernel}", CONJUNCTION, kde, None)
            checks.append(self._check(pq, tracer, check, req, k=self.k,
                                      rng=pq.RngStream(_program_seed(gen))))
        return checks


# ---------------------------------------------------------------------------
# thin-band
# ---------------------------------------------------------------------------

# Probability bounds cycle through four strata, as multiples of the band's
# reference probability (reported s.e. is ~14 % of it at k = 2 000): clearly
# satisfied, clearly violated, on the bound (indeterminate), and a wide
# two-sided band.  Runs end on a whole cycle, so the cycle fixes the verdict
# mix; the seed jitters it.
_THIN_STRATA = (((0.15, 0.25), None), (None, (0.15, 0.25)),
                ((0.95, 1.05), None), ((0.15, 0.25), (2.5, 3.0)))


class ThinBand(Workload):
    name = "thin-band"
    closed_unit = len(_THIN_STRATA)
    k = 2_000

    def __init__(self, seed, workdir, pq):
        super().__init__(seed, workdir)
        # The bands are what the seed varies; a fixed profile keeps se_mean
        # steady across seeds.
        self.doc = FIXTURE_PROFILES["corr"]
        self.profile_json = workdir / "profile.json"
        _write_json(self.profile_json, self.doc)
        self.pq = pq
        self._oracle_profile = pq.profile_from_dict(self.doc)
        self._bands = {}
        self.band(0)  # drawn here so that set-up times only the program

    def band(self, i: int):
        """A fresh band c <= 10*TP - RT <= c + w inside a seeded TP window."""
        if i not in self._bands:
            self._bands[i] = self._draw_band(i)
        return self._bands[i]

    def _draw_band(self, i: int):
        gen = np.random.default_rng([self.seed, 3, i])
        tp_lo = round(gen.uniform(25, 35), 3)
        tp_hi = round(tp_lo + gen.uniform(55, 65), 3)
        c = round(gen.uniform(160, 240), 3)
        w = round(gen.uniform(13, 17), 3)
        region = Region([(-1, 0, -tp_lo), (1, 0, tp_hi), (0, -1, 0),
                         (-10, 1, -c), (10, -1, c + w)],
                        f"{tp_lo!r} <= TP && TP <= {tp_hi!r} && 0 <= RT"
                        f" && 10 * TP - RT >= {c!r} && 10 * TP - RT <= {c + w!r}")
        ref = reference_probability(self._oracle_profile, self.doc, region, self.pq)
        lo, hi = _THIN_STRATA[i % len(_THIN_STRATA)]
        p_min = round(ref * gen.uniform(*lo), 6) if lo else 0.0
        p_max = round(ref * gen.uniform(*hi), 6) if hi else 1.0
        spec = RequirementSpec(f"band{i}", _p(region, p_min, p_max),
                               ((region, p_min, p_max),), 0, lambda t, v: t[0])
        return spec, _program_seed(gen)

    def setup(self, pq, tracer):
        profile = pq.serialize.load_profile(self.profile_json)
        with tracer.span("requirements.parse"):
            req = pq.parse_requirement(self.band(0)[0].text, profile.schema)
        return profile, req

    def run_unit(self, pq, state, i, tracer):
        profile, first = state
        spec, program_seed = self.band(i)
        if i == 0:
            req = first
        else:
            with tracer.span("requirements.parse"):
                req = pq.parse_requirement(spec.text, profile.schema)
        check = Check(f"band{i}", spec, profile, self.doc)
        return [self._check(pq, tracer, check, req, k=self.k,
                            rng=pq.RngStream(program_seed))]


WORKLOADS = {w.name: w for w in (SelectParametric, KdeLearnCheck, ThinBand)}
