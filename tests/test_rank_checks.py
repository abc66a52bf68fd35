"""The rank and point checks of every entry point that takes element ranks
or points, against the one-value oracles is_rank and is_point (conftest)
that scalar.valid_ranks and geometry.point_coordinates replaced.

Each site is swept with the same inputs in place of one rank or one point.
An input is accepted exactly when the oracle accepts what the site checks,
and a rejection raises the exception type and message in REJECTED, which
were recorded from the one-value checks: such a message is the command
line's exit-2 error line.  One recorded outcome changed on purpose:
center_spherical took a numpy integer radius and then raised TypeError in
Fq.char; it now reads it as a Python int and builds the set.  The closed
count shares the bruteforce count's equation check, so its rejections are
the bruteforce ones; it used to raise TypeError in Fq.pow on a numpy
integer the check accepts, and now counts as the bruteforce count does.
"""

import numpy as np
import pytest

from conftest import is_point, is_rank
from ffkakeya import (
    DiagonalEq,
    HypersphereSpec,
    PointSet,
    SphereSpec,
    center_spherical,
    diagonal_count_bruteforce,
    diagonal_count_closed,
    hypersphere_ranks,
    make_field,
    sphere_intersection_size,
    sphere_ranks,
    translate,
    witness_from_json_dict,
)
from ffkakeya.geometry import json_int, json_point

F = make_field(7)


def rank_inputs(good):
    """label -> a value in place of the element rank good."""
    return {"bool": True, "np.bool_": np.True_, "float": float(good), "str": str(good),
            "None": None, "-1": -1, "q": F.q, "2^70": 2 ** 70, "np.int64": np.int64(good),
            "np.uint8": np.uint8(good), "list": [good], "tuple": (good,),
            "ndarray": np.array([good, 0])}


def point_inputs():
    """label -> a value in place of the point (1, 0) of F_7^2: each rank
    input as its first coordinate, and whole values of another shape."""
    inputs = {f"coordinate {label}": [v, 0] for label, v in rank_inputs(1).items()}
    inputs.update({"list": [1, 0], "tuple": (1, 0), "ndarray": np.array([1, 0]),
                   "short": (1,), "long": (1, 0, 0), "None": None, "str": "10", "int": 1})
    return inputs


def equation(coeffs, rhs):
    """DiagonalEq without its constructor's zero test, which an array
    coefficient would fail before any rank check."""
    eq = DiagonalEq((1, 1), 1)
    object.__setattr__(eq, "coeffs", coeffs)
    object.__setattr__(eq, "rhs", rhs)
    return eq


def json_rank(v):
    return isinstance(v, int) and not isinstance(v, bool) and is_rank(F, v)


def oracle_of_converted(convert, check):
    """The oracle applied to what the site checks after convert, False
    where convert raises (the site raises there too)."""
    def oracle(v):
        try:
            converted = convert(v)
        except (TypeError, ValueError):
            return False
        return check(converted)
    return oracle


# site -> (the call with a value in place, the oracle of that value)
RANK_SITES = {
    "equation coefficient": (lambda v: diagonal_count_bruteforce(F, equation((v, 1), 1)),
                             lambda v: is_rank(F, v)),
    "equation rhs": (lambda v: diagonal_count_bruteforce(F, equation((1, 1), v)),
                     lambda v: is_rank(F, v)),
    "closed equation coefficient": (lambda v: diagonal_count_closed(F, equation((v, 1), 1)),
                                    lambda v: is_rank(F, v)),
    "closed equation rhs": (lambda v: diagonal_count_closed(F, equation((1, 1), v)),
                            lambda v: is_rank(F, v)),
    "json_int": (lambda v: json_int({"v": v}, "v", "entry", F), json_rank),
    "sphere radius": (lambda v: sphere_ranks(F, SphereSpec._make(((1, 2), v))),
                      lambda v: is_rank(F, v) and v != 0),
    "intersection radius": (lambda v: sphere_intersection_size(
        F, SphereSpec._make(((1, 2), v)), SphereSpec((0, 0), 1)), lambda v: is_rank(F, v)),
    "center_spherical radius": (lambda v: center_spherical(F, 2, v),
                                lambda v: v is None or is_rank(F, v)),
    "witness key": (lambda v: witness_from_json_dict(
        {"kind": "radius", "entries": {v: {"center": [1, 0], "radius": 1}}}, F, 2),
                    oracle_of_converted(int, lambda v: is_rank(F, v))),
}
POINT_SITES = {
    "membership": (lambda p: p in PointSet.from_ranks(F, 2, [1]), lambda p: is_point(F, 2, p)),
    "json_point": (lambda p: json_point({"v": p}, "v", "entry", F, 2),
                   lambda p: isinstance(p, list) and len(p) == 2 and all(map(json_rank, p))),
    "translate center": (lambda p: translate(F, 2, [0, 1], p),
                         oracle_of_converted(tuple, lambda p: is_point(F, 2, p))),
    "sphere center": (lambda p: sphere_ranks(F, SphereSpec._make((p, 1))),
                      lambda p: isinstance(p, (tuple, list)) and is_point(F, len(p), p)),
    "hypersphere direction": (lambda p: hypersphere_ranks(
        F, HypersphereSpec._make(((0, 0), p, 1))), lambda p: is_point(F, 2, p)),
    "intersection center": (lambda p: sphere_intersection_size(
        F, SphereSpec._make((p, 1)), SphereSpec((0, 0), 2)), lambda p: is_point(F, 2, p)),
}
SWEEP = ([(site, label, v, *RANK_SITES[site]) for site in RANK_SITES
          for label, v in rank_inputs(3 if site == "center_spherical radius" else 1).items()]
         + [(site, label, p, *POINT_SITES[site]) for site in POINT_SITES
            for label, p in point_inputs().items()])


def outcome(call, value):
    """None if the call accepts value, else (exception type, message)."""
    try:
        call(value)
    except Exception as exc:  # noqa: BLE001 (every rejection is recorded)
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("site,label,value,call,oracle", SWEEP,
                         ids=[f"{s[0]}-{s[1]}" for s in SWEEP])
def test_site_accepts_what_the_oracle_accepts(site, label, value, call, oracle):
    got = outcome(call, value)
    assert (got is None) is bool(oracle(value)), got
    assert got == REJECTED.get((site, label)), (site, label)


# (site, input) -> (exception type, message), for each input a site rejects
REJECTED = {
    ('equation coefficient', 'bool'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(True, 1), rhs=1)'),
    ('equation coefficient', 'np.bool_'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(np.True_, 1), rhs=1)'),
    ('equation coefficient', 'float'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1.0, 1), rhs=1)'),
    ('equation coefficient', 'str'):
        ('ValueError', "equation ranks must lie in [0, 7): DiagonalEq(coeffs=('1', 1), rhs=1)"),
    ('equation coefficient', 'None'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(None, 1), rhs=1)'),
    ('equation coefficient', '-1'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(-1, 1), rhs=1)'),
    ('equation coefficient', 'q'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(7, 1), rhs=1)'),
    ('equation coefficient', '2^70'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1180591620717411303424, 1), rhs=1)'),
    ('equation coefficient', 'list'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=([1], 1), rhs=1)'),
    ('equation coefficient', 'tuple'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=((1,), 1), rhs=1)'),
    ('equation coefficient', 'ndarray'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(array([1, 0]), 1), rhs=1)'),
    ('equation rhs', 'bool'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=True)'),
    ('equation rhs', 'np.bool_'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=np.True_)'),
    ('equation rhs', 'float'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=1.0)'),
    ('equation rhs', 'str'):
        ('ValueError', "equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs='1')"),
    ('equation rhs', 'None'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=None)'),
    ('equation rhs', '-1'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=-1)'),
    ('equation rhs', 'q'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=7)'),
    ('equation rhs', '2^70'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=1180591620717411303424)'),
    ('equation rhs', 'list'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=[1])'),
    ('equation rhs', 'tuple'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=(1,))'),
    ('equation rhs', 'ndarray'):
        ('ValueError', 'equation ranks must lie in [0, 7): DiagonalEq(coeffs=(1, 1), rhs=array([1, 0]))'),
    ('json_int', 'bool'):
        ('UsageError', "entry 'v' must be an integer, got True"),
    ('json_int', 'np.bool_'):
        ('UsageError', "entry 'v' must be an integer, got np.True_"),
    ('json_int', 'float'):
        ('UsageError', "entry 'v' must be an integer, got 1.0"),
    ('json_int', 'str'):
        ('UsageError', "entry 'v' must be an integer, got '1'"),
    ('json_int', 'None'):
        ('UsageError', "entry 'v' must be an integer, got None"),
    ('json_int', '-1'):
        ('UsageError', "entry 'v' rank -1 outside [0, 7)"),
    ('json_int', 'q'):
        ('UsageError', "entry 'v' rank 7 outside [0, 7)"),
    ('json_int', '2^70'):
        ('UsageError', "entry 'v' rank 1180591620717411303424 outside [0, 7)"),
    ('json_int', 'np.int64'):
        ('UsageError', "entry 'v' must be an integer, got np.int64(1)"),
    ('json_int', 'np.uint8'):
        ('UsageError', "entry 'v' must be an integer, got np.uint8(1)"),
    ('json_int', 'list'):
        ('UsageError', "entry 'v' must be an integer, got [1]"),
    ('json_int', 'tuple'):
        ('UsageError', "entry 'v' must be an integer, got (1,)"),
    ('json_int', 'ndarray'):
        ('UsageError', "entry 'v' must be an integer, got array([1, 0])"),
    ('sphere radius', 'bool'):
        ('ValueError', 'radius rank True outside [1, 7)'),
    ('sphere radius', 'np.bool_'):
        ('ValueError', 'radius rank np.True_ outside [1, 7)'),
    ('sphere radius', 'float'):
        ('ValueError', 'radius rank 1.0 outside [1, 7)'),
    ('sphere radius', 'str'):
        ('ValueError', "radius rank '1' outside [1, 7)"),
    ('sphere radius', 'None'):
        ('ValueError', 'radius rank None outside [1, 7)'),
    ('sphere radius', '-1'):
        ('ValueError', 'radius rank -1 outside [1, 7)'),
    ('sphere radius', 'q'):
        ('ValueError', 'radius rank 7 outside [1, 7)'),
    ('sphere radius', '2^70'):
        ('ValueError', 'radius rank 1180591620717411303424 outside [1, 7)'),
    ('sphere radius', 'list'):
        ('ValueError', 'radius rank [1] outside [1, 7)'),
    ('sphere radius', 'tuple'):
        ('ValueError', 'radius rank (1,) outside [1, 7)'),
    ('sphere radius', 'ndarray'):
        ('ValueError', 'radius rank array([1, 0]) outside [1, 7)'),
    ('intersection radius', 'bool'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=True), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('intersection radius', 'np.bool_'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=np.True_), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('intersection radius', 'float'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=1.0), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('intersection radius', 'str'):
        ('ValueError', "SphereSpec(center=(1, 2), radius='1'), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2"),
    ('intersection radius', 'None'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=None), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('intersection radius', '-1'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=-1), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('intersection radius', 'q'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=7), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('intersection radius', '2^70'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=1180591620717411303424), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('intersection radius', 'list'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=[1]), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('intersection radius', 'tuple'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=(1,)), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('intersection radius', 'ndarray'):
        ('ValueError', 'SphereSpec(center=(1, 2), radius=array([1, 0])), SphereSpec(center=(0, 0), radius=1): not spheres of F_7^2'),
    ('center_spherical radius', 'bool'):
        ('UsageError', 'radius rank True outside [0, 7)'),
    ('center_spherical radius', 'np.bool_'):
        ('UsageError', 'radius rank np.True_ outside [0, 7)'),
    ('center_spherical radius', 'float'):
        ('UsageError', 'radius rank 3.0 outside [0, 7)'),
    ('center_spherical radius', 'str'):
        ('UsageError', "radius rank '3' outside [0, 7)"),
    ('center_spherical radius', '-1'):
        ('UsageError', 'radius rank -1 outside [0, 7)'),
    ('center_spherical radius', 'q'):
        ('UsageError', 'radius rank 7 outside [0, 7)'),
    ('center_spherical radius', '2^70'):
        ('UsageError', 'radius rank 1180591620717411303424 outside [0, 7)'),
    ('center_spherical radius', 'list'):
        ('UsageError', 'radius rank [3] outside [0, 7)'),
    ('center_spherical radius', 'tuple'):
        ('UsageError', 'radius rank (3,) outside [0, 7)'),
    ('center_spherical radius', 'ndarray'):
        ('UsageError', 'radius rank array([3, 0]) outside [0, 7)'),
    ('witness key', 'None'):
        ('TypeError', "int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
    ('witness key', '-1'):
        ('UsageError', 'witness entry -1: key rank outside [0, 7)'),
    ('witness key', 'q'):
        ('UsageError', 'witness entry 7: key rank outside [0, 7)'),
    ('witness key', '2^70'):
        ('UsageError', 'witness entry 1180591620717411303424: key rank outside [0, 7)'),
    ('witness key', 'list'):
        ('TypeError', "unhashable type: 'list'"),
    ('witness key', 'tuple'):
        ('TypeError', "int() argument must be a string, a bytes-like object or a real number, not 'tuple'"),
    ('witness key', 'ndarray'):
        ('TypeError', "unhashable type: 'numpy.ndarray'"),
    ('membership', 'coordinate bool'):
        ('ValueError', '[True, 0] is not a point of F_7^2'),
    ('membership', 'coordinate np.bool_'):
        ('ValueError', '[np.True_, 0] is not a point of F_7^2'),
    ('membership', 'coordinate float'):
        ('ValueError', '[1.0, 0] is not a point of F_7^2'),
    ('membership', 'coordinate str'):
        ('ValueError', "['1', 0] is not a point of F_7^2"),
    ('membership', 'coordinate None'):
        ('ValueError', '[None, 0] is not a point of F_7^2'),
    ('membership', 'coordinate -1'):
        ('ValueError', '[-1, 0] is not a point of F_7^2'),
    ('membership', 'coordinate q'):
        ('ValueError', '[7, 0] is not a point of F_7^2'),
    ('membership', 'coordinate 2^70'):
        ('ValueError', '[1180591620717411303424, 0] is not a point of F_7^2'),
    ('membership', 'coordinate list'):
        ('ValueError', '[[1], 0] is not a point of F_7^2'),
    ('membership', 'coordinate tuple'):
        ('ValueError', '[(1,), 0] is not a point of F_7^2'),
    ('membership', 'coordinate ndarray'):
        ('ValueError', '[array([1, 0]), 0] is not a point of F_7^2'),
    ('membership', 'ndarray'):
        ('ValueError', 'array([1, 0]) is not a point of F_7^2'),
    ('membership', 'short'):
        ('ValueError', '(1,) is not a point of F_7^2'),
    ('membership', 'long'):
        ('ValueError', '(1, 0, 0) is not a point of F_7^2'),
    ('membership', 'None'):
        ('ValueError', 'None is not a point of F_7^2'),
    ('membership', 'str'):
        ('ValueError', "'10' is not a point of F_7^2"),
    ('membership', 'int'):
        ('ValueError', '1 is not a point of F_7^2'),
    ('json_point', 'coordinate bool'):
        ('UsageError', "entry 'v' must be an integer, got True"),
    ('json_point', 'coordinate np.bool_'):
        ('UsageError', "entry 'v' must be an integer, got np.True_"),
    ('json_point', 'coordinate float'):
        ('UsageError', "entry 'v' must be an integer, got 1.0"),
    ('json_point', 'coordinate str'):
        ('UsageError', "entry 'v' must be an integer, got '1'"),
    ('json_point', 'coordinate None'):
        ('UsageError', "entry 'v' must be an integer, got None"),
    ('json_point', 'coordinate -1'):
        ('UsageError', "entry 'v' rank -1 outside [0, 7)"),
    ('json_point', 'coordinate q'):
        ('UsageError', "entry 'v' rank 7 outside [0, 7)"),
    ('json_point', 'coordinate 2^70'):
        ('UsageError', "entry 'v' rank 1180591620717411303424 outside [0, 7)"),
    ('json_point', 'coordinate np.int64'):
        ('UsageError', "entry 'v' must be an integer, got np.int64(1)"),
    ('json_point', 'coordinate np.uint8'):
        ('UsageError', "entry 'v' must be an integer, got np.uint8(1)"),
    ('json_point', 'coordinate list'):
        ('UsageError', "entry 'v' must be an integer, got [1]"),
    ('json_point', 'coordinate tuple'):
        ('UsageError', "entry 'v' must be an integer, got (1,)"),
    ('json_point', 'coordinate ndarray'):
        ('UsageError', "entry 'v' must be an integer, got array([1, 0])"),
    ('json_point', 'tuple'):
        ('UsageError', "entry 'v' must be a list of 2 ranks"),
    ('json_point', 'ndarray'):
        ('UsageError', "entry 'v' must be a list of 2 ranks"),
    ('json_point', 'short'):
        ('UsageError', "entry 'v' must be a list of 2 ranks"),
    ('json_point', 'long'):
        ('UsageError', "entry 'v' must be a list of 2 ranks"),
    ('json_point', 'None'):
        ('UsageError', "entry 'v' must be a list of 2 ranks"),
    ('json_point', 'str'):
        ('UsageError', "entry 'v' must be a list of 2 ranks"),
    ('json_point', 'int'):
        ('UsageError', "entry 'v' must be a list of 2 ranks"),
    ('translate center', 'coordinate bool'):
        ('ValueError', 'center (True, 0) is not a point of F_7^2'),
    ('translate center', 'coordinate np.bool_'):
        ('ValueError', 'center (np.True_, 0) is not a point of F_7^2'),
    ('translate center', 'coordinate float'):
        ('ValueError', 'center (1.0, 0) is not a point of F_7^2'),
    ('translate center', 'coordinate str'):
        ('ValueError', "center ('1', 0) is not a point of F_7^2"),
    ('translate center', 'coordinate None'):
        ('ValueError', 'center (None, 0) is not a point of F_7^2'),
    ('translate center', 'coordinate -1'):
        ('ValueError', 'center (-1, 0) is not a point of F_7^2'),
    ('translate center', 'coordinate q'):
        ('ValueError', 'center (7, 0) is not a point of F_7^2'),
    ('translate center', 'coordinate 2^70'):
        ('ValueError', 'center (1180591620717411303424, 0) is not a point of F_7^2'),
    ('translate center', 'coordinate list'):
        ('ValueError', 'center ([1], 0) is not a point of F_7^2'),
    ('translate center', 'coordinate tuple'):
        ('ValueError', 'center ((1,), 0) is not a point of F_7^2'),
    ('translate center', 'coordinate ndarray'):
        ('ValueError', 'center (array([1, 0]), 0) is not a point of F_7^2'),
    ('translate center', 'short'):
        ('ValueError', 'center (1,) is not a point of F_7^2'),
    ('translate center', 'long'):
        ('ValueError', 'center (1, 0, 0) is not a point of F_7^2'),
    ('translate center', 'None'):
        ('TypeError', "'NoneType' object is not iterable"),
    ('translate center', 'str'):
        ('ValueError', "center ('1', '0') is not a point of F_7^2"),
    ('translate center', 'int'):
        ('TypeError', "'int' object is not iterable"),
    ('sphere center', 'coordinate bool'):
        ('ValueError', 'center [True, 0] is not a point of F_7^2'),
    ('sphere center', 'coordinate np.bool_'):
        ('ValueError', 'center [np.True_, 0] is not a point of F_7^2'),
    ('sphere center', 'coordinate float'):
        ('ValueError', 'center [1.0, 0] is not a point of F_7^2'),
    ('sphere center', 'coordinate str'):
        ('ValueError', "center ['1', 0] is not a point of F_7^2"),
    ('sphere center', 'coordinate None'):
        ('ValueError', 'center [None, 0] is not a point of F_7^2'),
    ('sphere center', 'coordinate -1'):
        ('ValueError', 'center [-1, 0] is not a point of F_7^2'),
    ('sphere center', 'coordinate q'):
        ('ValueError', 'center [7, 0] is not a point of F_7^2'),
    ('sphere center', 'coordinate 2^70'):
        ('ValueError', 'center [1180591620717411303424, 0] is not a point of F_7^2'),
    ('sphere center', 'coordinate list'):
        ('ValueError', 'center [[1], 0] is not a point of F_7^2'),
    ('sphere center', 'coordinate tuple'):
        ('ValueError', 'center [(1,), 0] is not a point of F_7^2'),
    ('sphere center', 'coordinate ndarray'):
        ('ValueError', 'center [array([1, 0]), 0] is not a point of F_7^2'),
    ('sphere center', 'ndarray'):
        ('ValueError', 'center [1 0] is not a point of F_7^2'),
    ('sphere center', 'None'):
        ('TypeError', "object of type 'NoneType' has no len()"),
    ('sphere center', 'str'):
        ('ValueError', 'center 10 is not a point of F_7^2'),
    ('sphere center', 'int'):
        ('TypeError', "object of type 'int' has no len()"),
    ('hypersphere direction', 'coordinate bool'):
        ('ValueError', 'direction [True, 0] is not a point of F_7^2'),
    ('hypersphere direction', 'coordinate np.bool_'):
        ('ValueError', 'direction [np.True_, 0] is not a point of F_7^2'),
    ('hypersphere direction', 'coordinate float'):
        ('ValueError', 'direction [1.0, 0] is not a point of F_7^2'),
    ('hypersphere direction', 'coordinate str'):
        ('ValueError', "direction ['1', 0] is not a point of F_7^2"),
    ('hypersphere direction', 'coordinate None'):
        ('ValueError', 'direction [None, 0] is not a point of F_7^2'),
    ('hypersphere direction', 'coordinate -1'):
        ('ValueError', 'direction [-1, 0] is not a point of F_7^2'),
    ('hypersphere direction', 'coordinate q'):
        ('ValueError', 'direction [7, 0] is not a point of F_7^2'),
    ('hypersphere direction', 'coordinate 2^70'):
        ('ValueError', 'direction [1180591620717411303424, 0] is not a point of F_7^2'),
    ('hypersphere direction', 'coordinate list'):
        ('ValueError', 'direction [[1], 0] is not a point of F_7^2'),
    ('hypersphere direction', 'coordinate tuple'):
        ('ValueError', 'direction [(1,), 0] is not a point of F_7^2'),
    ('hypersphere direction', 'coordinate ndarray'):
        ('ValueError', 'direction [array([1, 0]), 0] is not a point of F_7^2'),
    ('hypersphere direction', 'ndarray'):
        ('ValueError', 'direction [1 0] is not a point of F_7^2'),
    ('hypersphere direction', 'short'):
        ('ValueError', 'direction (1,) is not a point of F_7^2'),
    ('hypersphere direction', 'long'):
        ('ValueError', 'direction (1, 0, 0) is not a point of F_7^2'),
    ('hypersphere direction', 'None'):
        ('ValueError', 'direction None is not a point of F_7^2'),
    ('hypersphere direction', 'str'):
        ('ValueError', 'direction 10 is not a point of F_7^2'),
    ('hypersphere direction', 'int'):
        ('ValueError', 'direction 1 is not a point of F_7^2'),
    ('intersection center', 'coordinate bool'):
        ('ValueError', 'SphereSpec(center=[True, 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'coordinate np.bool_'):
        ('ValueError', 'SphereSpec(center=[np.True_, 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'coordinate float'):
        ('ValueError', 'SphereSpec(center=[1.0, 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'coordinate str'):
        ('ValueError', "SphereSpec(center=['1', 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2"),
    ('intersection center', 'coordinate None'):
        ('ValueError', 'SphereSpec(center=[None, 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'coordinate -1'):
        ('ValueError', 'SphereSpec(center=[-1, 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'coordinate q'):
        ('ValueError', 'SphereSpec(center=[7, 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'coordinate 2^70'):
        ('ValueError', 'SphereSpec(center=[1180591620717411303424, 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'coordinate list'):
        ('ValueError', 'SphereSpec(center=[[1], 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'coordinate tuple'):
        ('ValueError', 'SphereSpec(center=[(1,), 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'coordinate ndarray'):
        ('ValueError', 'SphereSpec(center=[array([1, 0]), 0], radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2'),
    ('intersection center', 'ndarray'):
        ('ValueError', 'The truth value of an array with more than one element is ambiguous. Use a.any() or a.all()'),
    ('intersection center', 'short'):
        ('ValueError', 'dimension mismatch'),
    ('intersection center', 'long'):
        ('ValueError', 'dimension mismatch'),
    ('intersection center', 'None'):
        ('TypeError', "object of type 'NoneType' has no len()"),
    ('intersection center', 'str'):
        ('ValueError', "SphereSpec(center='10', radius=1), SphereSpec(center=(0, 0), radius=2): not spheres of F_7^2"),
    ('intersection center', 'int'):
        ('TypeError', "object of type 'int' has no len()"),
}
# diagonal_count_closed runs the bruteforce count's equation check first
REJECTED.update({("closed " + site, label): REJECTED[site, label]
                 for site, label in list(REJECTED) if site.startswith("equation ")})


@pytest.mark.parametrize("p,k", [(7, 1), (251, 1), (3, 2), (3, 5)])
def test_counts_of_numpy_integer_ranks_are_the_python_int_counts(p, k):
    """Products of uint8 coefficients past 255 would wrap in Fq.mul."""
    field = make_field(p, k)
    rng = np.random.default_rng(p ** k)
    for *coeffs, rhs in rng.integers(1, field.q, size=(10, 4)).tolist():
        want = diagonal_count_bruteforce(field, DiagonalEq(tuple(coeffs), rhs))
        for kind in (np.int64, np.uint8):
            eq = DiagonalEq(tuple(map(kind, coeffs)), kind(rhs))
            assert diagonal_count_closed(field, eq) == diagonal_count_bruteforce(field, eq) \
                == want, (coeffs, rhs, kind)
