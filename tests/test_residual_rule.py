"""The one residual rule: a sup over components and samples that a NaN cannot slip past.

Every numeric check reduces its residuals with flows.residual_sup.  These
tests pin the rule itself and then feed each check a flow or a field that
reads NaN in one component, which must fail the check instead of being
dropped by a max() that compares NaN as smaller than everything.
"""

import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superflows import cli
from superflows.flows import (
    ClosedFormFlow,
    VerificationRecord,
    check_orbits,
    check_pde,
    check_translation,
    residual_sup,
)
from superflows.homog import RatVF
from superflows.symmetry import check_family_draws, check_field_symmetry

NAN = float("nan")


def test_sup_keeps_the_first_worst_sample():
    pairs = [((1.0, 0.5), "a"), ((0.0, 3.0), "b"), ((3.0, 1.0), "c"), ((2.0, 0.0), "d")]
    assert residual_sup(pairs) == (4, 3.0, "b")


def test_sup_starts_at_zero_without_a_sample():
    assert residual_sup([]) == (0, 0.0, None)
    assert residual_sup([((0.0, 0.0), "a"), ((0.0,), "b")]) == (2, 0.0, None)


@pytest.mark.parametrize("component", [0, 1])
def test_nan_anywhere_makes_the_sup_nan_at_its_first_sample(component):
    nan_pair = [1.0, 1.0]
    nan_pair[component] = NAN
    pairs = [((1.0, 2.0), "a"), (nan_pair, "b"), ((5.0, 0.0), "c"), ((NAN, NAN), "d")]
    count, sup, sample = residual_sup(pairs)
    assert (count, sample) == (4, "b") and math.isnan(sup)
    count, sup, sample = residual_sup([(nan_pair, "a"), ((9.0, 9.0), "b")])
    assert (count, sample) == (2, "a") and math.isnan(sup)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(*[st.floats(min_value=0.0, allow_nan=False)] * 2)))
def test_sup_of_numbers_is_the_max_and_its_first_sample(residuals):
    count, sup, index = residual_sup((r, i) for i, r in enumerate(residuals))
    per_sample = [max(r) for r in residuals]
    assert count == len(residuals)
    assert sup == max(per_sample, default=0.0)
    assert index == (per_sample.index(sup) if sup > 0.0 else None)


def test_a_nan_residual_fails_its_record():
    record = VerificationRecord("f", "check", *residual_sup([((0.0,), 1), ((NAN,), 2)]), tol=1.0)
    assert not record.passed and record.worst_sample == 2


def _nan_in(component, evaluate):
    """evaluate, with its value in `component` replaced by NaN."""
    def wrapped(*args):
        value = list(evaluate(*args))
        value[component] = complex(NAN, 0.0)
        return tuple(value)

    return wrapped


def _nan_time_map(flow, component):
    """Bind the flow's time map, with its value in `component` replaced by NaN."""
    object.__setattr__(flow, "time_map", _nan_in(component, flow.time_map))


@dataclass(frozen=True)
class NanFlow(ClosedFormFlow):
    """A cataloged flow whose time-t map reads NaN in one component."""

    nan_component: int = 0

    def __post_init__(self):
        super().__post_init__()
        _nan_time_map(self, self.nan_component)


def _nan_in_every_flow(monkeypatch, component):
    """Every flow built from now on reads NaN in `component` (the CLI builds its own)."""
    post_init = ClosedFormFlow.__post_init__

    def nan_post_init(self):
        post_init(self)
        _nan_time_map(self, component)

    monkeypatch.setattr(ClosedFormFlow, "__post_init__", nan_post_init)


def _nan_in_every_field(monkeypatch, component):
    """Every field's evaluator reads NaN in `component`."""
    evaluator = RatVF.evaluator
    monkeypatch.setattr(RatVF, "evaluator", lambda self: _nan_in(component, evaluator(self)))


def _failing(records):
    return [r for r in records if not r.passed]


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("family, k", [("parabolic", 0), ("radical_x", 1), ("radical_y", 2)])
def test_translation_fails_on_a_nan_component(family, k, component):
    record = check_translation(NanFlow(family, k, component), random.Random(1), 20)
    assert math.isnan(record.max_residual) and not record.passed


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("family, k", [("sph_inf", 0), ("level0", 0), ("radical_y", 1)])
def test_both_pde_records_fail_on_a_nan_component(family, k, component):
    records = check_pde(NanFlow(family, k, component), random.Random(2), 10)
    assert [r.check for r in _failing(records)] == ["pde", "vector_field_extraction"]
    assert all(math.isnan(r.max_residual) for r in records)


@pytest.mark.parametrize("component", [0, 1])
def test_orbit_checks_fail_when_the_field_reads_nan(monkeypatch, component):
    _nan_in_every_field(monkeypatch, component)
    records = check_orbits(random.Random(3), 5, 20)
    # each orbit case (conservation along RK4, then the ODE) has a failing record
    assert {r.flow for r in _failing(records)} == {r.flow for r in records}
    assert len({r.flow for r in records}) == 3


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("family, k", [("parabolic", 0), ("sph_inf", 0), ("radical_x", 1)])
def test_family_draws_fail_on_a_nan_component(family, k, component):
    flow = NanFlow(family, k, component)
    rng = random.Random(4)
    samples = [(flow.sample_point(rng), flow.sample_time(rng)) for _ in range(5)]
    record = check_family_draws(flow, samples, rng, 3)
    assert math.isnan(record.max_residual) and not record.passed


@pytest.mark.parametrize("component", [0, 1])
def test_numeric_field_symmetry_fails_on_a_nan_component(monkeypatch, component):
    field = ClosedFormFlow("parabolic").vector_field()
    identity = ((1, 0), (0, 1))  # nested pairs take the numeric route
    samples = [(0.5, 0.25), (-0.3, 0.7)]
    assert check_field_symmetry(identity, field, samples) == (True, 0.0)
    _nan_in_every_field(monkeypatch, component)
    ok, resid = check_field_symmetry(identity, field, samples)
    assert not ok and math.isnan(resid)


def _strict_json_lines(text):
    """Every line parsed as JSON that RFC 8259 allows: a bare NaN or Infinity raises."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return [json.loads(line, parse_constant=refuse) for line in text.splitlines()]


def test_a_json_line_writes_every_non_finite_number_as_null():
    # at any depth, as in a worst sample; the keys are sorted
    record = {"worst_sample": [[math.nan, 0.5], (-math.inf, 1)], "max_residual": math.inf, "n": 3}
    line = cli._json_line(record)
    assert line == '{"max_residual": null, "n": 3, "worst_sample": [[null, 0.5], [null, 1]]}'


def _run_json(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, _strict_json_lines(out.getvalue())


@pytest.mark.parametrize("component", [0, 1])
def test_verify_flow_exits_1_on_a_nan_flow(monkeypatch, component):
    _nan_in_every_flow(monkeypatch, component)
    argv = ["verify-flow", "--family", "parabolic", "--samples", "5", "--format", "json"]
    code, (record,) = _run_json(argv)
    # the NaN residual is written as null, and the check still fails
    assert code == 1 and record["max_residual"] is None


@pytest.mark.parametrize("component", [0, 1])
def test_symmetry_json_writes_a_nan_residual_as_null(monkeypatch, component):
    _nan_in_every_flow(monkeypatch, component)
    argv = ["symmetry", "--family", "delta_tilde", "--draws", "3", "--format", "json"]
    code, (report,) = _run_json(argv)
    assert code == 1
    assert report["worst_residual"] is None and report["all_passed"] is False
