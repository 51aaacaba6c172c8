"""Generated-input properties of the scenario parser.

Settings are fixed (derandomized, bounded example counts, no deadline) so
the suite stays deterministic and fast.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebeam import ParseError, Scenario, ValidationError, cli, emit_scenario, parse_scenario

FIXED = settings(derandomize=True, max_examples=200, deadline=None, database=None)

THETA_FRACTIONS = ("0", "pi", "pi/6", "2pi/3", "0.5pi", "5pi/6", "pi / 2")
PHI_FRACTIONS = THETA_FRACTIONS + ("2pi", "3pi/2", "7pi/4")


def _number(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False).map(repr)


def _angle(hi: float, fractions):
    return st.one_of(_number(0.0, hi), st.sampled_from(fractions))


@st.composite
def valid_documents(draw) -> str:
    """Scenario documents whose every value lies inside its contract.

    Radii stay below 10 m, focal and probe ranges at or above 20 m, and the
    range window spans [11, 20) to (100, 200] m, so every range clears the
    array and every focal range lies inside the window.
    """
    kind = draw(st.sampled_from(["upa", "spiral_saa", "ring_saa", "polyhedral_saa", "spiral_curve_saa"]))
    lines = [f"kind = {kind}"]
    if kind == "upa":
        lines.append(f"n = {draw(st.integers(1, 40)) ** 2}")
        lines.append(f"spacing = {draw(_number(1e-4, 1.0))}")
    else:
        lines.append(f"radius = {draw(_number(1e-3, 10.0))}")
    if kind in ("spiral_saa", "spiral_curve_saa"):
        lines.append(f"n = {draw(st.integers(1, 5000))}")
    if kind == "spiral_curve_saa":
        lines.append(f"turns = {draw(_number(1e-3, 50.0))}")
    if kind == "ring_saa":
        lines.append(f"n_rings = {draw(st.integers(1, 200))}")
        policy = draw(st.one_of(st.none(), st.just("proportional"), st.integers(1, 500).map("fixed:{}".format)))
        if policy is not None:
            lines.append(f"ring_policy = {policy}")
    if kind == "polyhedral_saa":
        lines.append(f"subdivision = {draw(st.integers(0, 8))}")
    lines.append(f"wavelength = {draw(_number(1e-4, 1.0))}")
    for _ in range(draw(st.integers(1, 4))):
        r = draw(_number(20.0, 100.0))
        lines.append(f"focal = {r}, {draw(_angle(3.14159, THETA_FRACTIONS))}, {draw(_angle(6.28318, PHI_FRACTIONS))}")
    if draw(st.booleans()):
        lines.append("sweep = angle")
        lines.append(f"theta_samples = {draw(st.integers(2, 721))}")
        lines.append(f"phi_samples = {draw(st.integers(2, 721))}")
        lines.append(f"eval_range = {draw(_number(20.0, 500.0))}")
        lines.append(f"normalization = {draw(st.sampled_from(['grid_max', 'focal']))}")
    else:
        lines.append("sweep = distance")
        lines.append(f"r_min = {draw(_number(11.0, 19.999))}")
        lines.append(f"r_max = {draw(_number(100.001, 200.0))}")
        lines.append(f"r_samples = {draw(st.integers(2, 5000))}")
    if draw(st.booleans()):
        lines.append(f"out = runs/{draw(st.integers(0, 99))}")
    lines = draw(st.permutations(lines))
    return "\n".join(lines) + "\n"


SCALAR_KEYS = (
    "kind", "n", "radius", "spacing", "n_rings", "ring_policy", "subdivision", "turns",
    "wavelength", "sweep", "theta_samples", "phi_samples", "eval_range",
    "r_min", "r_max", "r_samples", "normalization", "out",
)

NUMBER_TOKENS = st.one_of(
    st.sampled_from(["", "banana", "0", "-0", "-1", "-2.5", "1e400", "inf", "-inf", "nan", "1e-320", "3.5"]),
    st.integers(-5, 400).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)

ANGLE_TOKENS = st.one_of(
    NUMBER_TOKENS,
    st.sampled_from(["pi", "pi/0", "0pi/0", "2pi/0.0", "2pi/3", "pi/banana", "7pi", "pi/1e3", "99pi/2"]),
)

SCALAR_TOKENS = st.one_of(
    NUMBER_TOKENS,
    ANGLE_TOKENS,
    st.sampled_from([
        "fixed:", "fixed:0", "fixed:-2", "fixed:4", "fixed:abc", "proportional", "upa",
        "spiral_saa", "ring_saa", "polyhedral_saa", "spiral_curve_saa", "angle", "distance",
        "grid_max", "focal", "a = b",
    ]),
    st.text(max_size=6),
)

LINES = st.one_of(
    st.tuples(st.sampled_from(SCALAR_KEYS), SCALAR_TOKENS).map("{0[0]} = {0[1]}".format),
    st.tuples(NUMBER_TOKENS, ANGLE_TOKENS, ANGLE_TOKENS).map("focal = {0[0]}, {0[1]}, {0[2]}".format),
    SCALAR_TOKENS.map("focal = {}".format),
)


DOCUMENTS = st.lists(LINES, max_size=14).map(lambda lines: "".join(line + "\n" for line in lines))


class TestParserProperties:
    @FIXED
    @given(valid_documents())
    def test_valid_documents_round_trip(self, text):
        first = parse_scenario(text)
        assert parse_scenario(emit_scenario(first)) == first

    @FIXED
    @given(DOCUMENTS)
    def test_any_document_parses_or_raises_a_typed_error(self, text):
        try:
            result = parse_scenario(text)
        except (ParseError, ValidationError):
            return
        assert isinstance(result, Scenario)

    @FIXED
    @given(valid_documents())
    def test_flags_give_the_same_scenario_as_text(self, text):
        pairs = [line.split(" = ", 1) for line in text.splitlines()]
        fields = dict(pair for pair in pairs if pair[0] != "focal")
        out = fields.pop("out", "runs/flags")
        argv = ["pattern", fields.pop("sweep"), "--out", out]
        for key, value in [*fields.items(), *(pair for pair in pairs if pair[0] == "focal")]:
            argv += ["--" + key.replace("_", "-"), value]
        captured = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "run_scenario", lambda scenario, out_dir, threads: captured.append((scenario, out_dir)))
            cli.main(argv)
        assert captured == [(replace(parse_scenario(text), out=None), out)]
