import json
import math

import numpy as np
import pytest

from probqos import (
    Box,
    CorrelatedTPRT,
    KDEProfile,
    QoSRecordSet,
    RngStream,
    derive_service_seed,
    load_profile,
    load_repository,
    parse_requirement,
    profile_from_dict,
    profile_to_dict,
    save_profile,
    select,
)
from probqos.broker import BrokerError
from probqos.cli import main
from probqos.learning import LearningError
from probqos.profiles import ProfileError, rectangle_probability
from probqos.reference import (
    R_GOOD_TEXT,
    SCHEMA,
    bad_profile,
    correlated_profile,
    independent_profile,
    shifted_profile,
)
from probqos.serialize import SerializationError

GOOD_MIN = f"P[{R_GOOD_TEXT}] in [0.6, _]\n"
BOX_TEXT = "60 <= TP && TP <= 100 && 0 <= RT && RT <= 300"


def _kde_profile():
    records = QoSRecordSet(SCHEMA, RngStream(0).generator().normal(
        [50.0, 300.0], [15.0, 100.0], (20, 2)))
    return KDEProfile(SCHEMA, records, "exponential", (3.0, 30.0))


def _set(key, value, index=None):
    """Edit one field of a profile document, inside marginal `index` if given."""
    def edit(doc):
        (doc["marginals"][index] if index is not None else doc)[key] = value
    return edit


NON_FINITE = {
    "gaussian-mean-nan": (independent_profile, _set("mean", math.nan, 0)),
    "gaussian-mean-inf": (independent_profile, _set("mean", math.inf, 0)),
    "gaussian-variance-inf": (independent_profile, _set("variance", math.inf, 0)),
    "gamma-shape-inf": (independent_profile, _set("shape", math.inf, 1)),
    "gamma-rate-nan": (independent_profile, _set("rate", math.nan, 1)),
    "tprt-mu-nan": (correlated_profile, _set("mu", math.nan)),
    "tprt-mu-inf": (correlated_profile, _set("mu", -math.inf)),
    "tprt-sigma2-inf": (correlated_profile, _set("sigma2", math.inf)),
    "tprt-alpha-nan": (correlated_profile, _set("alpha", math.nan)),
    "tprt-beta-inf": (correlated_profile, _set("beta", math.inf)),
    "kde-bandwidth-inf": (_kde_profile, _set("bandwidths", [3.0, math.inf])),
    "kde-bandwidth-nan": (_kde_profile, _set("bandwidths", [math.nan, 30.0])),
}


@pytest.fixture
def repo(tmp_path):
    repo_dir = tmp_path / "repo"
    repo_dir.mkdir()
    save_profile(independent_profile(), repo_dir / "svc_weak.json")
    save_profile(shifted_profile(), repo_dir / "svc_strong.json")
    save_profile(bad_profile(), repo_dir / "svc_bad.json")
    return repo_dir


@pytest.fixture
def req_file(tmp_path):
    path = tmp_path / "good_min.qreq"
    path.write_text(GOOD_MIN)
    return path


class TestSerialize:
    @pytest.mark.parametrize("make", [independent_profile, shifted_profile])
    def test_independent_round_trip(self, make, tmp_path):
        path = tmp_path / "p.json"
        save_profile(make(), path)
        loaded = load_profile(path)
        pt = [70.0, 150.0]
        assert loaded.density_at(pt) == make().density_at(pt)

    def test_correlated_round_trip(self):
        profile = CorrelatedTPRT(50.0, 300.0, 3.0, 0.01)
        loaded = profile_from_dict(profile_to_dict(profile))
        assert loaded.density_at([55.0, 250.0]) == profile.density_at([55.0, 250.0])

    def test_kde_round_trip(self, tmp_path):
        records = QoSRecordSet(SCHEMA, RngStream(0).generator().normal(
            [50.0, 300.0], [15.0, 100.0], (20, 2)))
        profile = KDEProfile(SCHEMA, records, "exponential", (3.0, 30.0),
                             fit_info={"method": "scott"})
        path = tmp_path / "kde.json"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded.kernel == "exponential"
        assert loaded.density_at([50.0, 300.0]) == profile.density_at([50.0, 300.0])
        assert loaded.fit_info == {"method": "scott"}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_profile(path)

    def test_unknown_kind(self):
        with pytest.raises(SerializationError):
            profile_from_dict({"schema": ["TP", "RT"], "kind": "copula"})

    @pytest.mark.parametrize("make,edit", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_parameters_rejected(self, make, edit):
        doc = profile_to_dict(make())
        edit(doc)
        with pytest.raises((ProfileError, LearningError), match="finite"):
            profile_from_dict(doc)


class TestRepository:
    def test_load(self, repo):
        entries = load_repository(repo)
        assert [e.service_id for e in entries] == ["svc_bad", "svc_strong", "svc_weak"]

    def test_empty_repo(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(BrokerError):
            load_repository(empty)

    def test_schema_consistency(self, repo):
        (repo / "odd.json").write_text(json.dumps(
            {"schema": ["a"], "kind": "independent",
             "marginals": [{"family": "gaussian", "mean": 0, "variance": 1}]}))
        with pytest.raises(BrokerError):
            load_repository(repo)


class TestSeedDerivation:
    def test_stable(self):
        assert derive_service_seed(7, "svc") == derive_service_seed(7, "svc")

    def test_distinct_per_service(self):
        assert derive_service_seed(7, "a") != derive_service_seed(7, "b")

    def test_distinct_per_master(self):
        assert derive_service_seed(7, "a") != derive_service_seed(8, "a")


class TestSelect:
    def test_only_satisfying_selected(self, repo):
        req = parse_requirement(GOOD_MIN, SCHEMA)
        result = select(load_repository(repo), req, k=20_000, seed=3)
        assert [sid for sid, _ in result.ranked] == ["svc_strong"]
        assert all(rep.verdict == "satisfied" for _, rep in result.ranked)

    def test_vacuous_requirement_orders_by_id(self, repo):
        req = parse_requirement("true", SCHEMA)
        result = select(load_repository(repo), req, k=2_000, seed=0)
        assert [sid for sid, _ in result.ranked] == ["svc_bad", "svc_strong",
                                                     "svc_weak"]

    def test_empty_entries(self):
        with pytest.raises(BrokerError):
            select([], parse_requirement("true", SCHEMA))

    def test_deterministic(self, repo):
        req = parse_requirement(GOOD_MIN, SCHEMA)
        entries = load_repository(repo)
        a = select(entries, req, k=10_000, seed=5).to_dict()
        b = select(entries, req, k=10_000, seed=5).to_dict()
        assert a == b

    def test_selection_soundness(self, repo):
        # every selected service individually passes under the same derived seed
        from probqos import qos_check

        req = parse_requirement(GOOD_MIN, SCHEMA)
        entries = {e.service_id: e for e in load_repository(repo)}
        result = select(entries.values(), req, k=20_000, seed=9)
        for sid, _ in result.ranked:
            stream = RngStream(derive_service_seed(9, sid))
            assert qos_check(entries[sid].profile, req, k=20_000,
                             rng=stream).verdict == "satisfied"


class TestCLI:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_check_satisfied(self, capsys, tmp_path):
        profile = tmp_path / "p.json"
        save_profile(independent_profile(), profile)
        req = tmp_path / "r.qreq"
        req.write_text("P[60 <= TP && TP <= 100 && 0 <= RT && RT <= 300]"
                       " in [0.10, 0.20]\n")
        code, out, _ = self.run(capsys, "check", str(profile), str(req),
                                "--samples", "50000")
        assert code == 0
        assert json.loads(out)["verdict"] == "satisfied"

    def test_check_violated(self, capsys, tmp_path, req_file):
        profile = tmp_path / "p.json"
        save_profile(independent_profile(), profile)
        code, out, _ = self.run(capsys, "check", str(profile), str(req_file),
                                "--samples", "20000")
        assert code == 1
        assert json.loads(out)["verdict"] == "violated"

    def test_check_unbounded_region(self, capsys, tmp_path):
        profile = tmp_path / "p.json"
        save_profile(independent_profile(), profile)
        req = tmp_path / "r.qreq"
        req.write_text("P[TP >= 0] in [0, 1]\n")
        code, _, err = self.run(capsys, "check", str(profile), str(req))
        assert code == 12
        assert "unbounded" in err

    def test_check_malformed_profile(self, capsys, tmp_path, req_file):
        profile = tmp_path / "p.json"
        profile.write_text("{oops")
        code, _, _ = self.run(capsys, "check", str(profile), str(req_file))
        assert code == 10

    def test_check_schema_mismatch(self, capsys, tmp_path):
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(
            {"schema": ["latency"], "kind": "independent",
             "marginals": [{"family": "gaussian", "mean": 0, "variance": 1}]}))
        req = tmp_path / "r.qreq"
        req.write_text("P[60 <= TP && TP <= 100] in [0, 1]\n")
        code, _, _ = self.run(capsys, "check", str(profile), str(req))
        assert code in (10, 11)  # unknown attribute is reported at parse time

    def test_select_reproducible(self, capsys, repo, req_file):
        args = ("select", str(repo), str(req_file), "--samples", "10000",
                "--seed", "13")
        code_a, out_a, _ = self.run(capsys, *args)
        code_b, out_b, _ = self.run(capsys, *args)
        assert (code_a, code_b) == (0, 0)
        assert out_a == out_b

    def test_select_none_satisfied(self, capsys, repo, tmp_path):
        req = tmp_path / "impossible.qreq"
        req.write_text(f"P[{R_GOOD_TEXT}] in [0.999, _]\n")
        code, out, _ = self.run(capsys, "select", str(repo), str(req),
                                "--samples", "5000")
        assert code == 1
        assert json.loads(out)["selected"] == []

    def test_select_empty_repo(self, capsys, tmp_path, req_file):
        empty = tmp_path / "none"
        empty.mkdir()
        code, _, _ = self.run(capsys, "select", str(empty), str(req_file))
        assert code == 10

    def test_learn_cv_and_check(self, capsys, tmp_path, fixtures_dir):
        out_path = tmp_path / "kde.json"
        code, out, _ = self.run(capsys, "learn",
                                str(fixtures_dir / "records_xcorr_1000.csv"),
                                "-o", str(out_path), "--cv", "--seed", "5",
                                "--json")
        assert code == 0
        info = json.loads(out)
        assert info["method"] == "cv"
        profile = load_profile(out_path)
        assert profile.box_mass(profile.covering_box()) == pytest.approx(1.0,
                                                                         abs=2e-3)

    def test_learn_scott_plumbs_through(self, capsys, tmp_path, fixtures_dir):
        from probqos import QoSRecordSet, bandwidth_scott

        csv_path = fixtures_dir / "records_xcorr_1000.csv"
        out_path = tmp_path / "kde.json"
        code, _, _ = self.run(capsys, "learn", str(csv_path), "-o", str(out_path),
                              "--bandwidth", "scott")
        assert code == 0
        profile = load_profile(out_path)
        expected = bandwidth_scott(QoSRecordSet.from_csv(csv_path))
        np.testing.assert_allclose(profile.bandwidths, expected, rtol=1e-12)

    def test_learn_single_row_rejected(self, capsys, tmp_path):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("TP,RT\n50,200\n")
        code, _, _ = self.run(capsys, "learn", str(csv_path), "-o",
                              str(tmp_path / "out.json"))
        assert code == 10

    def test_integrate(self, capsys, tmp_path):
        profile = tmp_path / "p.json"
        save_profile(independent_profile(), profile)
        code, out, _ = self.run(capsys, "integrate", str(profile), "--region",
                                "60 <= TP && TP <= 100 && 0 <= RT && RT <= 300",
                                "--samples", "100000", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"] == pytest.approx(0.16145, abs=0.005)

    def test_integrate_scan(self, capsys, tmp_path):
        profile = tmp_path / "p.json"
        save_profile(independent_profile(), profile)
        truth = rectangle_probability(independent_profile(),
                                      Box((60.0, 0.0), (100.0, 300.0)))
        argv = ("integrate", str(profile), "--region", BOX_TEXT, "--scan",
                "--ks", "100,1000,10000", "--scan-seeds", "3", "--json")
        code, out, _ = self.run(capsys, *argv, "--truth", str(truth))
        assert code == 0
        doc = json.loads(out)
        assert [row["k"] for row in doc["rows"]] == [100, 1000, 10000]
        assert all(row["mean_abs_error"] >= 0 for row in doc["rows"])
        assert math.isfinite(doc["slope"]) and doc["truth"] == truth
        code, out, err = self.run(capsys, *argv)
        assert (code, out) == (10, "")
        assert "--truth" in err

    def test_volume(self, capsys):
        code, out, _ = self.run(capsys, "volume", "--region",
                                "0 <= x && 0 <= y && x + y <= 1",
                                "--attributes", "x,y", "--samples", "100000",
                                "--json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["volume"] - 0.5) <= 3 * doc["std_error"] + 1e-12

    @pytest.mark.parametrize("z", ["-500", "nan"])
    def test_check_z_validated(self, capsys, fixtures_dir, z):
        code, out, err = self.run(capsys, "check",
                                  str(fixtures_dir / "profiles" / "service_a.json"),
                                  str(fixtures_dir / "requirements" / "good_min.qreq"),
                                  "--samples", "20000", "--z", z)
        assert (code, out) == (10, "")
        assert "confidence_z" in err

    def test_check_non_finite_profile(self, capsys, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "profiles" / "service_a.json").read_text())
        doc["marginals"][0]["mean"] = math.nan
        profile = tmp_path / "nan.json"
        profile.write_text(json.dumps(doc))
        code, out, err = self.run(capsys, "check", str(profile),
                                  str(fixtures_dir / "requirements" / "good_min.qreq"),
                                  "--samples", "2000")
        assert (code, out) == (10, "")
        assert "finite" in err

    @pytest.mark.parametrize("text", [
        "!" * 3000 + "true",
        "(" * 3000 + "true" + ")" * 3000,
    ], ids=["negations", "parentheses"])
    def test_check_deep_requirement(self, capsys, tmp_path, fixtures_dir, text):
        req = tmp_path / "deep.qreq"
        req.write_text(text)
        code, out, err = self.run(capsys, "check",
                                  str(fixtures_dir / "profiles" / "service_a.json"),
                                  str(req), "--samples", "2000")
        assert (code, out) == (10, "")
        assert err.count("\n") == 1 and "too deeply" in err

    @pytest.mark.parametrize("op", ["||", "&&"], ids=["or", "and"])
    def test_check_flat_chain(self, capsys, tmp_path, fixtures_dir, op):
        # a flat chain parses to a balanced tree, so its length is no depth
        req = tmp_path / "flat.qreq"
        req.write_text("vars p ; " + f" {op} ".join(["p"] * 3000))
        code, out, err = self.run(capsys, "check",
                                  str(fixtures_dir / "profiles" / "service_a.json"),
                                  str(req), "--samples", "2000")
        assert (code, err) == (0, "")
        assert json.loads(out)["witness"] == {"p": True}

    @pytest.mark.parametrize("argv", [
        ("check", "profile.json"),
        ("check", "profile.json", "req.qreq", "--samples", "abc"),
        ("learn", "records.csv", "-o", "out.json", "--samples", "1000"),
        ("volume", "--region", "0 <= x", "--attributes", "x", "--z", "1"),
        ("frobnicate",),
    ])
    def test_usage_error_exits_malformed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 10
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("verb,present,absent", [
        ("check", {"--samples", "--z"}, set()),
        ("select", {"--samples", "--z"}, set()),
        ("learn", set(), {"--samples", "--z"}),
        ("integrate", {"--samples"}, {"--z"}),
        ("volume", {"--samples"}, {"--z"}),
    ])
    def test_help_lists_used_flags_only(self, capsys, verb, present, absent):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        flags = set(capsys.readouterr().out.replace(",", " ").split())
        assert present | {"--seed", "--json"} <= flags
        assert not flags & (absent | {"--mode"})
