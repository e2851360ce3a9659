"""Scalar 3-vector helpers: cross3/norm3 give the bits of np.cross and
np.linalg.norm on shape-(3,) float64 arrays."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from darboux.surface import cross3, norm3

VEC3 = arrays(np.float64, 3, elements=st.floats(allow_nan=False, allow_infinity=False))

TINY = 5e-324          # smallest subnormal
SUB = 2.2250738585072014e-308 / 3.0
BIG = 1.7976931348623157e308
ROOT_BIG = 1.3407807929942596e154   # about sqrt(max float)

EXPLICIT = [
    (np.array([-0.0, -0.0, -0.0]), np.array([1.0, -1.0, 2.0])),
    (np.array([TINY, -TINY, SUB]), np.array([SUB, TINY, -SUB])),
    (np.array([TINY, 1.0, -TINY]), np.array([1e-300, -1e-10, 3.0])),
    (np.array([BIG, -BIG, 1.0]), np.array([1.0, 2.0, -BIG])),
    (np.array([ROOT_BIG, ROOT_BIG, -ROOT_BIG]), np.array([ROOT_BIG, -ROOT_BIG, ROOT_BIG])),
    (np.array([BIG, BIG, BIG]), np.array([BIG, BIG, BIG])),
]


def _same_bits(x, y) -> bool:
    return np.asarray(x, dtype=np.float64).tobytes() == np.asarray(y, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(VEC3, VEC3)
def test_cross3_matches_np_cross(a, b):
    with np.errstate(all="ignore"):
        assert _same_bits(cross3(a, b), np.cross(a, b))


@settings(max_examples=300, deadline=None)
@given(VEC3)
def test_norm3_matches_np_linalg_norm(a):
    with np.errstate(all="ignore"):
        assert _same_bits(norm3(a), np.linalg.norm(a))


@pytest.mark.parametrize("a, b", EXPLICIT)
def test_explicit_cases(a, b):
    with np.errstate(all="ignore"):
        assert _same_bits(cross3(a, b), np.cross(a, b))
        assert _same_bits(cross3(b, a), np.cross(b, a))
        assert _same_bits(norm3(a), np.linalg.norm(a))
        assert _same_bits(norm3(b), np.linalg.norm(b))


def test_signed_zero_combinations():
    zeros = (0.0, -0.0)
    vectors = [np.array(v) for v in itertools.product(zeros, repeat=3)]
    for a, b in itertools.product(vectors, repeat=2):
        assert _same_bits(cross3(a, b), np.cross(a, b))
        assert _same_bits(norm3(a), np.linalg.norm(a))


def test_types():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
    assert cross3(a, b).shape == (3,) and cross3(a, b).dtype == np.float64
    assert isinstance(norm3(a), float)
