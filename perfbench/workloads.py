"""The three workloads: their operations, their sizes and the checks on
their results.

Every operation goes through pqeuler's public modules and looks its function
up on the module at call time, so the wrappers that ``spans.py`` installs see
every call.  Each check compares a result with ``oracles.py`` (computed apart
from the package), with another operation of the same pass, or with a
property the method must have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from pqeuler import contfrac, harness, lattice, maps, permstat

import oracles

# Sizes per mode.  "full" is what the timed runs use; "quick" runs every
# operation and every check of a workload in a few seconds.
SIZES = {
    "full": {
        "contra": 4,          # check contra (order)
        "cf_check": 8,        # thm2_1, cor2_2, cor2_3 (order)
        "stat_check": 7,      # thm4_1, cor_cf_A, cor_cf_SZ (order)
        "sec7": 9,            # check sec7 (n)
        "thm41": 7,           # preset("thm4.1").expand(order)
        "euler": 12,          # tangent-pq and secant-pq expansions (order)
        "cf_a": 7,            # preset("cf-A").expand(order)
        "perm_check": 7,      # euler_roselle, foata_han, jv, shin_zeng, mad_remark
        "family": 8,          # stat_polynomial on S and D through the pool
        "object_check": 7,    # thm3_2, sz_linear, equidist_remark
        "fz": 7,              # maps.fz over all of S_n
        "transfer": 11,       # weighted_sum("laguerre", ., method="dp")
        "oracle": 9,          # weighted_sum("laguerre", ., method="enumerate")
        "kernel": 8,          # stat_tuple over all of S_n (traced run only)
    },
    "quick": {
        "contra": 2, "cf_check": 5, "stat_check": 5, "sec7": 6, "thm41": 6,
        "euler": 8, "cf_a": 5, "perm_check": 5, "family": 6,
        "object_check": 5, "fz": 6, "transfer": 8, "oracle": 7, "kernel": 6,
    },
}


@dataclass(frozen=True)
class Op:
    name: str                    # key of the result, e.g. "check:contra"
    size: int
    call: Callable[[], object]

    @property
    def label(self) -> str:
        return f"{self.name}@{self.size}"


# -- operations --------------------------------------------------------------


def _check(check_id: str, param: int):
    return harness.check(check_id, param)


def _expand(preset_name: str, order: int):
    return contfrac.preset(preset_name).expand(order)


def _family_polynomial(family: str, n: int):
    # parallel_threshold=n sends the call through the default worker pool
    return permstat.stat_polynomial(family, n, permstat.QUINTUPLE_WEIGHT,
                                    parallel_threshold=n)


def _fz_images(n: int):
    return [maps.fz(sigma) for sigma in permstat.family_iter("S", n)]


def _laguerre(length: int, method: str):
    return lattice.weighted_sum("laguerre", length,
                                lattice.laguerre_quintuple_weights(),
                                method=method)


def _check_op(check_id: str, param: int) -> Op:
    return Op(f"check:{check_id}", param, partial(_check, check_id, param))


def series_ops(z: dict) -> list[Op]:
    ops = [_check_op("contra", z["contra"])]
    ops += [_check_op(cid, z["cf_check"]) for cid in ("thm2_1", "cor2_2", "cor2_3")]
    ops += [_check_op(cid, z["stat_check"])
            for cid in ("thm4_1", "cor_cf_A", "cor_cf_SZ")]
    ops.append(_check_op("sec7", z["sec7"]))
    for name, key in (("thm4.1", "thm41"), ("tangent-pq", "euler"),
                      ("secant-pq", "euler"), ("cf-A", "cf_a")):
        ops.append(Op(f"expand:{name}", z[key], partial(_expand, name, z[key])))
    return ops


def enumeration_ops(z: dict) -> list[Op]:
    ops = [_check_op(cid, z["perm_check"]) for cid in
           ("euler_roselle", "foata_han", "jv", "shin_zeng", "mad_remark")]
    for family in ("S", "D"):
        ops.append(Op(f"stat_polynomial:{family}", z["family"],
                      partial(_family_polynomial, family, z["family"])))
    return ops


def objects_ops(z: dict) -> list[Op]:
    ops = [_check_op(cid, z["object_check"])
           for cid in ("thm3_2", "sz_linear", "equidist_remark")]
    ops.append(Op("fz:S", z["fz"], partial(_fz_images, z["fz"])))
    ops.append(Op("transfer:laguerre", z["transfer"],
                  partial(_laguerre, z["transfer"], "dp")))
    ops.append(Op("transfer:laguerre-oracle-size", z["oracle"],
                  partial(_laguerre, z["oracle"], "dp")))
    ops.append(Op("enumerate:laguerre", z["oracle"],
                  partial(_laguerre, z["oracle"], "enumerate")))
    return ops


# -- checks ------------------------------------------------------------------
# Each takes {op name: result} for the operations that did not raise and
# returns a list of problems; an empty list means every result is right.


def coefficients(poly) -> dict:
    """{exponent tuple: int} read through the stable JSON form."""
    return {tuple(t["e"]): int(t["c"]) for t in poly.to_json()}


def coefficient_sum(poly) -> int:
    return sum(coefficients(poly).values())


def value_at_signs(poly, signs: tuple) -> int:
    """Value of the polynomial with each variable set to +1 or -1."""
    total = 0
    for e, c in coefficients(poly).items():
        flips = sum(k for k, sign in zip(e, signs) if sign < 0)
        total += -c if flips % 2 else c
    return total


def marginal(poly, var_index: int) -> list[int] | None:
    """Coefficient list of the one-variable marginal (all other variables 1)."""
    out: dict = {}
    for e, c in coefficients(poly).items():
        out[e[var_index]] = out.get(e[var_index], 0) + c
    if any(k < 0 for k in out):
        return None  # a negative exponent can never match a count list
    return [out.get(k, 0) for k in range(max(out, default=-1) + 1)]


def _report_problems(results: dict) -> list[str]:
    return [f"{name}: {report}" for name, report in results.items()
            if name.startswith("check:") and not report.passed]


def verify_series(results: dict, z: dict) -> list[str]:
    problems = _report_problems(results)
    if "expand:thm4.1" in results:
        for n in range(z["thm41"] + 1):
            got = coefficient_sum(results["expand:thm4.1"].coeff(n))
            if got != math.factorial(n):
                problems.append(f"thm4.1: t^{n} at all variables 1 is {got}, not {n}!")
    euler = oracles.euler_numbers(max(z["euler"], z["cf_a"]))
    for name, parity in (("tangent-pq", 1), ("secant-pq", 0)):
        series = results.get(f"expand:{name}")
        if series is None:
            continue
        for n in range(z["euler"] + 1):
            want = euler[n] if n % 2 == parity else 0
            got = coefficient_sum(series.coeff(n))
            if got != want:
                problems.append(f"{name}: t^{n} at p=q=1 is {got}, not {want}")
    if "expand:cf-A" in results:
        series = results["expand:cf-A"]
        for n in range(z["cf_a"] + 1):
            if n == 0:
                want = 1
            elif n % 2:
                want = (-1) ** ((n + 1) // 2) * euler[n]
            else:
                want = 0
            got = value_at_signs(series.coeff(n), (-1, 1, 1, 1, 1))
            if got != want:
                problems.append(f"cf-A: t^{n} at x=-1, y=q=1 is {got}, not {want}")
    return problems


def verify_enumeration(results: dict, z: dict) -> list[str]:
    problems = _report_problems(results)
    n = z["family"]
    full = results.get("stat_polynomial:S")
    if full is not None:
        if coefficient_sum(full) != math.factorial(n):
            problems.append(f"S_{n}: coefficient sum is not {n}!")
        if marginal(full, 0) != oracles.eulerian_by_wex(n):
            problems.append(f"S_{n}: wex marginal differs from the Eulerian numbers")
        if marginal(full, 4) != oracles.mahonian(n):
            problems.append(f"S_{n}: inv marginal differs from prod [k]_q")
        # Foata-Zeilberger: the Laguerre-history sum carries the same
        # quintuple statistic as the permutations
        if full != _laguerre(n, "dp"):
            problems.append(f"S_{n}: differs from the transfer pass at length {n}")
    der = results.get("stat_polynomial:D")
    if der is not None and coefficient_sum(der) != oracles.derangements(n):
        problems.append(f"D_{n}: coefficient sum is not the derangement number "
                        f"{oracles.derangements(n)}")
    return problems


def verify_objects(results: dict, z: dict) -> list[str]:
    problems = _report_problems(results)
    images = results.get("fz:S")
    if images is not None:
        n = z["fz"]
        if len(images) != math.factorial(n) or len(set(images)) != len(images):
            problems.append(f"fz: {len(set(images))} distinct images of "
                            f"{len(images)} words, not {n}!")
    if "transfer:laguerre" in results:
        length = z["transfer"]
        if coefficient_sum(results["transfer:laguerre"]) != math.factorial(length):
            problems.append(f"transfer pass at length {length} does not count {length}!")
    dp = results.get("transfer:laguerre-oracle-size")
    brute = results.get("enumerate:laguerre")
    if brute is not None:
        length = z["oracle"]
        if coefficient_sum(brute) != math.factorial(length):
            problems.append(f"{coefficient_sum(brute)} Laguerre histories of "
                            f"length {length}, not {length}!")
        if dp is not None and dp != brute:
            problems.append(f"transfer pass differs from enumeration at length {length}")
    return problems


@dataclass(frozen=True)
class Workload:
    ops: Callable[[dict], list[Op]]
    verify: Callable[[dict, dict], list[str]]
    # code a fresh interpreter runs to measure set-up: import the package
    # and build what the workload's operations are built from
    setup_code: str


WORKLOADS = {
    "series": Workload(
        series_ops, verify_series,
        "import pqeuler\n"
        "for name in ('jv-tangent', 'jv-secant', 'sz-tangent', 'sz-secant',\n"
        "             'tangent-pq', 'secant-pq', 'tangent-q', 'secant-q',\n"
        "             'tangent-qstar', 'secant-qstar', 'thm4.1', 'cf-A', 'cf-SZ'):\n"
        "    pqeuler.preset(name)\n"),
    "enumeration": Workload(
        enumeration_ops, verify_enumeration,
        "import pqeuler\n"
        "weight = dict(pqeuler.permstat.QUINTUPLE_WEIGHT)\n"),
    "objects": Workload(
        objects_ops, verify_objects,
        "import pqeuler\n"
        "pqeuler.lattice.laguerre_quintuple_weights()\n"),
}
