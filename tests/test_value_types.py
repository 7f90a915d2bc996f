"""What the value types and records promise their callers.

Equality and hash where a caller compares or hashes, the repr that a
requirement hash is taken over, read-only records, the messages of the
validating constructors, and that no class is a dataclass: generating
dataclass methods made up most of the time `import probqos` took.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import probqos
from probqos import (
    AttributeSchema,
    Box,
    CheckReport,
    ConstraintResult,
    ConvergenceScan,
    GammaMarginal,
    GaussianMarginal,
    IntegralEstimate,
    QoSConstraint,
    QoSRecordSet,
    RngStream,
    SelectionResult,
    ServiceEntry,
    parse_region,
    parse_requirement,
)
from probqos.broker import requirement_hash
from probqos.geometry import DimensionMismatchError, GeometryError
from probqos.learning import LearningError
from probqos.profiles import ProfileError
from probqos.reference import R_BAD_TEXT, R_GOOD_TEXT, SCHEMA, independent_profile
from probqos.reqast import (
    Bottom,
    Constraint,
    Not,
    Or,
    PropVar,
    RequirementError,
    Top,
    and_,
    iff,
)
from probqos.requirements import QoSRequirement
from probqos.rng import as_stream


def _probqos_classes():
    modules = [importlib.import_module(f"probqos.{info.name}")
               for info in pkgutil.iter_modules(probqos.__path__)]
    return [obj for module in modules for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__]


def test_no_class_is_a_dataclass():
    classes = _probqos_classes()
    assert len(classes) > 20
    assert [cls.__qualname__ for cls in classes if dataclasses.is_dataclass(cls)] == []


def test_schema_equality_and_hash_ignore_the_sequence_type():
    as_list, as_tuple = AttributeSchema(["TP", "RT"]), AttributeSchema(("TP", "RT"))
    assert as_list.names == ("TP", "RT")
    assert as_list == as_tuple
    assert hash(as_list) == hash(as_tuple)
    assert len({as_list, as_tuple, SCHEMA}) == 1
    assert as_list != AttributeSchema(("RT", "TP"))


def test_schema_rejects_a_bare_string():
    # a string is a sequence of one-letter names, which no caller means
    with pytest.raises(ProfileError, match="list of attribute names"):
        AttributeSchema("TP")


def test_rng_streams_compare_and_hash_by_value():
    assert RngStream(5) == RngStream(5, 0) == as_stream(5) == as_stream(np.int64(5))
    assert RngStream(5) != RngStream(5, 1)
    assert hash(RngStream(3, 2)) == hash(RngStream(3, 2))
    substreams = {RngStream(7).substream(i) for i in (0, 0, 1)}
    assert substreams == {RngStream(7).substream(1), RngStream(7).substream(0)}


def test_parsed_formulas_compare_by_structure():
    text = "vars a b c ; (a && !b) -> c <-> true || false"
    first, second = (parse_requirement(text, SCHEMA).root for _ in range(2))
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert first != parse_requirement(text.replace("!b", "b"), SCHEMA).root
    assert Or(left=PropVar("a"), right=Not(child=Top())) == Or(PropVar("a"), Not(Top()))
    assert Top() != Bottom()


def test_requirement_hash_without_source_is_stable():
    # a requirement built from nodes has no source text, so its hash is
    # taken over repr(root); the digest is the one the dataclass nodes gave
    good = QoSConstraint(parse_region(R_GOOD_TEXT, SCHEMA), 0.6)
    bad = QoSConstraint(parse_region(R_BAD_TEXT, SCHEMA), 0.0, 0.25)
    root = iff(and_(Constraint(good), PropVar("p1")),
               Or(Not(Constraint(bad)), Or(Top(), Bottom())))
    req = QoSRequirement(root=root, prop_vars=("p1",))
    assert req.source is None
    assert repr(PropVar("p1")) == "PropVar(name='p1')"
    assert repr(good) == ("QoSConstraint(region=HPolytope(m=5, attrs=('TP', 'RT')), "
                          "p_min=0.6, p_max=1.0)")
    assert requirement_hash(req) == (
        "1da313dca67037b012ea08f8793220e4b5246a33f154874de07f0108e09ba0fe")


_REPORT = CheckReport("satisfied", {"p": True},
                      (ConstraintResult("c0", 0.1, 0.2, 0.15, 0.01, True, 0.05),), 100, 3.0)
RECORDS = {
    "RngStream": (RngStream(1), "seed"),
    "IntegralEstimate": (IntegralEstimate(0.5, 0.1, 100, 1.0), "value"),
    "ConvergenceScan": (ConvergenceScan(((10, 0.1),), -0.5), "slope"),
    "ServiceEntry": (ServiceEntry("svc", independent_profile()), "profile"),
    "SelectionResult": (SelectionResult((("svc", _REPORT),), "0" * 64, 100, 0, 3.0), "ranked"),
    "QoSRequirement": (QoSRequirement(Top(), ()), "root"),
    "ConstraintResult": (_REPORT.constraint_table[0], "estimate"),
    "CheckReport": (_REPORT, "verdict"),
}


@pytest.mark.parametrize("record,field", RECORDS.values(), ids=RECORDS.keys())
def test_record_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


GAUSSIAN_MESSAGE = "mean must be finite and variance positive and finite"
GAMMA_MESSAGE = "shape and rate must be positive and finite"
VALIDATION = {
    "box-shape": (lambda: Box([0.0, 0.0], [1.0]), DimensionMismatchError,
                  "box bounds must be equal-length vectors"),
    "box-matrix": (lambda: Box([[0.0]], [[1.0]]), DimensionMismatchError,
                   "box bounds must be equal-length vectors"),
    "box-finite": (lambda: Box([0.0], [math.inf]), GeometryError,
                   "box bounds must be finite"),
    "box-order": (lambda: Box([1.0], [0.0]), GeometryError,
                  "box lower bound exceeds upper bound"),
    "constraint-order": (lambda: QoSConstraint(None, 0.5, 0.2), RequirementError,
                         "need 0 <= p_min <= p_max <= 1, got [0.5, 0.2]"),
    "constraint-range": (lambda: QoSConstraint(None, 0.0, 1.5), RequirementError,
                         "need 0 <= p_min <= p_max <= 1, got [0.0, 1.5]"),
    "gaussian-mean": (lambda: GaussianMarginal(math.nan, 1.0), ProfileError, GAUSSIAN_MESSAGE),
    "gaussian-variance": (lambda: GaussianMarginal(0.0, 0.0), ProfileError, GAUSSIAN_MESSAGE),
    "gamma-shape": (lambda: GammaMarginal(-1.0, 1.0), ProfileError, GAMMA_MESSAGE),
    "gamma-rate": (lambda: GammaMarginal(1.0, math.inf), ProfileError, GAMMA_MESSAGE),
    "schema-empty": (lambda: AttributeSchema(()), ProfileError,
                     "schema needs at least one attribute"),
    "schema-blank": (lambda: AttributeSchema(("TP", "")), ProfileError,
                     "attribute names must be nonempty"),
    "schema-duplicate": (lambda: AttributeSchema(["TP", "TP"]), ProfileError,
                         "attribute names must be unique"),
    "schema-not-strings": (lambda: AttributeSchema([None, 5]), ProfileError,
                           "attribute names must be strings, got schema [None, 5]"),
    "records-vector": (lambda: QoSRecordSet(SCHEMA, np.ones(4)), LearningError,
                       "observations must be an m x n matrix"),
    "records-one-row": (lambda: QoSRecordSet(SCHEMA, np.ones((1, 2))), LearningError,
                        "need at least 2 records"),
    "records-columns": (lambda: QoSRecordSet(SCHEMA, np.ones((3, 3))), DimensionMismatchError,
                        "records have 3 columns, schema has 2"),
    "records-finite": (lambda: QoSRecordSet(SCHEMA, [[1.0, 2.0], [math.nan, 1.0]]),
                       LearningError, "records must be finite (no missing values)"),
}


@pytest.mark.parametrize("make,error,message", VALIDATION.values(), ids=VALIDATION.keys())
def test_validation_messages(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_validated_values_keep_their_fields():
    box = Box([0, 1], [2, 3])
    assert box.lower.dtype == float and not box.lower.flags.writeable
    assert box.upper.tolist() == [2.0, 3.0]
    records = QoSRecordSet(SCHEMA, [[1, 2], [3, 4]])
    assert records.schema is SCHEMA and not records.observations.flags.writeable
    assert (GaussianMarginal(1.0, 4.0).sd, GammaMarginal(2.0, 3.0).rate) == (2.0, 3.0)
    constraint = QoSConstraint(parse_region(R_GOOD_TEXT, SCHEMA), 0.6)
    assert (constraint.p_min, constraint.p_max) == (0.6, 1.0)
