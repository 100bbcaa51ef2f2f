"""Command-line interface.

Subcommands: stats, verify, cf, table, bij, export, frontier.  Exit codes: 0
success / verified, 1 a verification failed, 2 usage error.  ``python -m
pqeuler`` runs it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import frontier, harness
from .contfrac import PRESET_NAMES, preset
from .maps import csz, csz_biwords, fv, fv_star, fz, invol_phi, invol_psi
from .permstat import (
    FAMILIES,
    basic_stats,
    parse_word,
    stat_polynomial,
    STAT_FIELDS,
    word_str,
)
from .qeuler import euler_table

class UsageError(ValueError):
    pass


def parse_weight(text: str) -> dict:
    """Parse "x=wex,q=toht+2*thto" into the stat_polynomial weight mapping."""
    weight: dict = {}
    for clause in text.split(","):
        clause = clause.strip()
        if "=" not in clause:
            raise UsageError(f"bad weight clause {clause!r} (want var=expr)")
        var, expr = (part.strip() for part in clause.split("=", 1))
        if var in weight:
            raise UsageError(f"weight variable {var!r} is given twice")
        stats: dict = {}
        for term in expr.split("+"):
            term = term.strip()
            if "*" in term:
                coeff_text, stat = (p.strip() for p in term.split("*", 1))
                try:
                    coeff = int(coeff_text)
                except ValueError:
                    raise UsageError(f"bad coefficient in term {term!r} of "
                                     f"weight clause {clause!r}") from None
            else:
                coeff, stat = 1, term
            if stat not in STAT_FIELDS:
                raise UsageError(f"unknown statistic {stat!r} in weight")
            stats[stat] = stats.get(stat, 0) + coeff
        weight[var] = stats
    return weight


def _cmd_stats(args) -> int:
    record = basic_stats(parse_word(args.perm))
    if args.json:
        print(json.dumps(record.to_json()))
    else:
        print(" ".join(f"{k}={v}" for k, v in asdict(record).items()))
    return 0


def _cmd_verify(args) -> int:
    param = args.n if args.n is not None else args.order
    report = harness.check(args.id, param)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report)
    return 0 if report.passed else 1


def _cmd_cf(args) -> int:
    series = preset(args.preset).expand(args.order)
    if args.json:
        print(json.dumps(series.to_json()))
    else:
        print(series)
    return 0


def _cmd_table(args) -> int:
    if args.what == "euler":
        if args.family is not None or args.weight is not None:
            raise UsageError("table --what euler takes no --family or --weight")
        rows = euler_table(args.n)
        print(json.dumps([row.to_json() for row in rows]))
        return 0
    if args.family is None or args.weight is None:
        raise UsageError("table needs --family and --weight (or --what euler)")
    weight = parse_weight(args.weight)
    poly = stat_polynomial(args.family, args.n, weight)
    if args.json:
        print(json.dumps(poly.to_json()))
    else:
        print(poly)
    return 0


# name -> (map, the harness certificate that runs it over every word of size n)
_BIJECTIONS = {
    "fv": (fv, harness.certify_fv),
    "fv-star": (fv_star, harness.certify_fv_star),
    "fz": (fz, harness.certify_fz),
    "csz": (csz, harness.certify_csz),
    "phi": (invol_phi, harness.certify_phi),
    "psi": (invol_psi, harness.certify_psi),
}
BIJ_NAMES = tuple(_BIJECTIONS)


def _cmd_bij(args) -> int:
    if args.verify:
        if args.n is None:
            raise UsageError("bij --verify needs --n")
        if args.perm is not None:
            raise UsageError("bij --verify takes no permutation")
        why = _BIJECTIONS[args.name][1](args.n)
        if why is None:
            print(f"{args.name} verified at n={args.n}")
            return 0
        print(f"{args.name} failed at n={args.n}: {why}", file=sys.stderr)
        return 1
    if args.perm is None:
        raise UsageError("bij needs a permutation (or --verify)")
    if args.n is not None:
        raise UsageError("bij --n needs --verify")
    sigma = parse_word(args.perm)
    if args.name == "csz":
        fw, gw = csz_biwords(sigma)
        print(f"descent biword:    {fw}")
        print(f"nondescent biword: {gw}")
    image = _BIJECTIONS[args.name][0](sigma)
    print(word_str(image) if isinstance(image, tuple) else image)
    return 0


def _cmd_export(args) -> int:
    rows = euler_table(args.n)
    payload = json.dumps([row.to_json() for row in rows], indent=2)
    if args.out == "-":
        print(payload)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
        print(f"wrote {args.out}")
    return 0


def _cmd_frontier(args) -> int:
    def progress(check_id, step):
        print(f"{check_id}@{step['n']}: {step['status']} "
              f"[{step['seconds']:.2f}s, {step['peak_rss_mb']} MB]", flush=True)

    unknown = [cid for cid in args.ids if cid not in harness.CHECK_IDS]
    if unknown:
        raise UsageError(f"unknown check {unknown[0]!r}; known: "
                         f"{', '.join(harness.CHECK_IDS)}")
    result = frontier.frontier(args.ids or harness.CHECK_IDS, args.budget,
                               args.repeat, None if args.json else progress)
    if args.json:
        print(json.dumps(result))
    else:
        for climb in result["checks"]:
            print(f"{climb['check']}: reach {climb['reach']} (from "
                  f"{climb['start']}; {climb['steps'][-1]['n']} {climb['stop']})")
    return 1 if any(c["stop"] in ("fail", "error") for c in result["checks"]) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqeuler",
        description="Exact verification toolkit for (p,q)-tangent and secant numbers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print all statistics of a permutation")
    p.add_argument("perm")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("verify", help="run a named identity check")
    p.add_argument("id", choices=harness.CHECK_IDS)
    size = p.add_mutually_exclusive_group()
    size.add_argument("--n", type=int)
    size.add_argument("--order", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cf", help="expand a continued-fraction preset")
    p.add_argument("preset", choices=PRESET_NAMES)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("table", help="statistic polynomial or the Euler table")
    p.add_argument("--what", choices=("euler",))
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("bij", help="apply or verify a bijection/involution")
    p.add_argument("name", choices=BIJ_NAMES)
    p.add_argument("perm", nargs="?")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_bij)

    p = sub.add_parser("export", help="write the Euler table as JSON")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--out", default="euler_table.json")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("frontier", help="the largest size each check passes "
                       "within a time budget, one child process at a time")
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="checks to climb (default: every check)")
    p.add_argument("--budget", type=float, default=frontier.BUDGET,
                   help="seconds (default %(default)s)")
    p.add_argument("--repeat", type=int, default=1,
                   help="the most runs per size; the median decides")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_frontier)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse signals usage problems with code 2
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OverflowError) as exc:
        # UsageError included; an OverflowError is an exponent past the
        # packed digit range, reached from the weight or size given
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
