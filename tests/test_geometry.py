import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshbounds import geometry
from chshbounds.geometry import (
    Configuration,
    angle_between,
    canonical_configuration,
    cross,
    dot,
    magnitude,
    normalized,
    planar_vector,
    random_configuration,
    require_unit,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
vec = st.tuples(finite, finite, finite)


@given(vec, vec)
def test_dot_and_cross_match_numpy(u, v):
    assert abs(dot(u, v) - float(np.dot(u, v))) < 1e-12
    got = cross(u, v)
    expected = np.cross(u, v)
    assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12


@given(vec)
def test_magnitude_matches_numpy(v):
    assert abs(magnitude(v) - float(np.linalg.norm(v))) < 1e-12


def test_normalized_across_scales():
    directions = ((1.0, 0.0, 0.0), (3.0, 4.0, 0.0), (1.0, 1.0, 0.0), (-2.0, 3.0, 6.0))
    for exponent in range(-300, 301, 20):
        for d in directions:
            v = normalized(tuple(c * 10.0**exponent for c in d))
            assert abs(magnitude(v) - 1.0) < 1e-15
            assert max(abs(x - c / magnitude(d)) for x, c in zip(v, d)) < 1e-15
    for bad in ((0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, math.nan, 0.0)):
        with pytest.raises(ValueError):
            normalized(bad)


def test_require_unit_gates():
    require_unit((1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        require_unit((1.0, 1e-3, 0.0))


@pytest.mark.parametrize(
    "bad",
    [
        (math.nan, 0.0, 0.0),
        (math.inf, 0.0, 0.0),
        (0.0, -math.inf, 0.0),
        (1e200, 0.0, 0.0),  # the squared length overflows
        (1.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
    ],
    ids=["nan", "inf", "-inf", "overflow", "two", "four"],
)
def test_require_unit_rejects_non_finite_and_wrong_length(bad):
    with pytest.raises(ValueError, match="^v "):
        require_unit(bad, label="v")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0 + 1e-11])
def test_require_bounded_rejects_non_finite_and_out_of_range(bad):
    with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
        geometry.require_bounded(bad, "x")


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_planar_vector_is_unit(angle):
    v = planar_vector(angle)
    assert abs(magnitude(v) - 1.0) < 1e-15
    assert v[2] == 0.0


def test_angle_between_clamps_rounding():
    v = normalized((1.0, 1e-8, 0.0))
    assert angle_between(v, v) == 0.0
    assert abs(angle_between((1, 0, 0), (-1, 0, 0)) - math.pi) == 0.0
    assert abs(angle_between((1, 0, 0), (0, 1, 0)) - math.pi / 2) < 1e-15


@pytest.mark.parametrize("text", ["1", b"1", bytearray(b"1")], ids=["str", "bytes", "bytearray"])
def test_configuration_refuses_text(text):
    """float() would parse text; a direction's components must be numbers."""
    e1 = (1.0, 0.0, 0.0)
    with pytest.raises(TypeError, match="a component must be a number"):
        Configuration((text, 0, 0), e1, e1, e1)
    with pytest.raises(TypeError, match="b_prime component must be a number"):
        Configuration(e1, e1, e1, (0, 0, text))
    with pytest.raises(TypeError, match="v component must be a number"):
        require_unit((0.0, text, 0.0), label="v")


def test_configuration_rejects_non_unit():
    e1, e2, e3 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    for bad in ((2.0, 0.0, 0.0), (1.0, 1e-5, 0.0), (math.nan, 0.0, 0.0), (1.0, 0.0)):
        for build in (Configuration.from_vectors, Configuration):
            with pytest.raises(ValueError):
                build(e1, e2, e3, bad)


def test_configuration_stores_only_vectors_validated_once(monkeypatch):
    names = ("a", "a_prime", "b", "b_prime")
    assert Configuration._fields == names
    calls = {"require_unit": 0, "acos": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(geometry, "require_unit", counting("require_unit", require_unit))
    monkeypatch.setattr(geometry.math, "acos", counting("acos", math.acos))
    cfg = Configuration.from_vectors([1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0])
    assert calls == {"require_unit": 4, "acos": 0}
    assert tuple(vars(cfg)) == names
    assert cfg.a == (1.0, 0.0, 0.0) and type(cfg.a[0]) is float


def test_configuration_angles_are_derived_and_read_only():
    """A configuration stores its four vectors only, and none can be replaced;
    an angle is ``angle_between`` of two of them."""
    cfg = random_configuration(2, 3)
    assert tuple(vars(cfg)) == Configuration._fields
    for name in Configuration._fields:
        with pytest.raises(AttributeError):
            setattr(cfg, name, (1.0, 0.0, 0.0))


def test_canonical_configuration_geometry():
    cfg = canonical_configuration()
    h = math.sqrt(0.5)
    assert cfg.a == (1.0, 0.0, 0.0)
    assert cfg.a_prime == (0.0, 1.0, 0.0)
    assert cfg.b == (-h, -h, 0.0)
    assert cfg.b_prime == (-h, h, 0.0)
    assert abs(angle_between(cfg.a, cfg.a_prime) - math.pi / 2) < 1e-15
    assert abs(angle_between(cfg.b, cfg.b_prime) - math.pi / 2) < 1e-15
    assert abs(angle_between(cfg.a_prime, cfg.b_prime) - math.pi / 4) < 1e-15
    # the two diagonal sums that drive the bound chain
    s = tuple(x + y for x, y in zip(cfg.b, cfg.b_prime))
    d = tuple(x - y for x, y in zip(cfg.b, cfg.b_prime))
    assert max(abs(x - y) for x, y in zip(s, (-math.sqrt(2), 0.0, 0.0))) < 1e-15
    assert max(abs(x - y) for x, y in zip(d, (0.0, -math.sqrt(2), 0.0))) < 1e-15


def test_coplanar_constructor():
    cfg = Configuration.coplanar(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    assert abs(angle_between(cfg.a, cfg.b) - math.pi / 4) < 1e-15
    assert abs(angle_between(cfg.b, cfg.b_prime) - math.pi / 2) < 1e-15
    for v in cfg.vectors():
        assert v[2] == 0.0


def test_random_configuration_determinism():
    c1 = random_configuration(1, 4)
    c2 = random_configuration(1, 4)
    assert c1 == c2
    assert random_configuration(1, 5) != c1
    # independent sub-streams: adjacent indices share no vectors
    assert random_configuration(1, 5).a != c1.a


def test_unit_tolerance_constant():
    assert geometry.UNIT_TOLERANCE == 1e-12
