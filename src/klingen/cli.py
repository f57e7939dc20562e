"""Command-line surface: compute, enumerate, verify, and emit tables.

Four subcommands over the library:

  dim        one dimension query, both routes, with the family breakdown
  enumerate  the support table at a level (counts and per-family dims)
  verify     named verification suites with machine-readable failures
  table      a dimension grid over lists of q and n

Exit codes: 0 success, 1 usage error, 2 mathematical disagreement or
failed verification, 3 resource bound exceeded.  Every KlingenError ends in
one of them (``_ERROR_EXITS``), never in a traceback: bad or unsupported
input (a q that is not a prime power, an unknown name, a value the class
data does not pin) is a usage error; a disagreement, failed verification or
non-integral result is 2; a size, budget or precision bound is 3.  The size
bounds are library constants, not flags (``groupfq.CLOSURE_BOUND``,
``CONJUGACY_BOUND``, ``ffield.FIELD_BOUND``, ``dixon.ORDER_BOUND``); only the
rg suite's sample --budget is set on the command line.  Four refusals are
made before any work: ``verify counts`` at a q that is not prime (exit 1; its
skew-coset oracle is still wrong there), ``verify chartab`` at a q other
than 2 (exit 1; ``verify all`` runs its chartab suite at q = 2 whatever
--q says), a verify suite whose --n-max is below its first level, so that
it would check nothing, or above its last (exit 1, ``_SUITE_LEVELS``), and
dim, enumerate or table at a level too large to print (exit 3,
``DIGITS_BOUND``).
Every verify suite records its checks in one ``verify_lemmas.Checks``; a
failed check is listed under the suite's failures and the remaining suites
still run (exit 2 once all have).  Only a chartab run that cannot build the
character table or its virtual typeII carrier raises MismatchReport (exit
2, nothing on stdout).
Identical flags (and seed) produce byte-identical output.  Only the rg
suite of verify samples, so only verify takes --seed, and the KLINGEN_SEED
environment variable is read only when the rg suite runs.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .chartab import dim_fixed_family, family_from_name
from .cosets import (
    SKEW_CASES,
    enumerate_small_reps,
    enumerate_supp,
    row_of,
    skew_brute_count,
    skew_closed_count,
    table1_brute_count,
    table1_count,
)
from .dims import (
    ORIGIN_K,
    ORIGIN_PARAMODULAR,
    DimRequest,
    corollary_value,
    dim_klingen,
)
from .errors import (
    ClosureTooLarge,
    DisagreementError,
    DivisionByZero,
    DixonBoundExceeded,
    FieldTooLarge,
    GroupTooLarge,
    KlingenError,
    MismatchReport,
    MixedFields,
    NonConvergence,
    NonIntegralResult,
    NotPolynomial,
    NotPrime,
    NotScopedClass,
    NotSimilitude,
    OrderMismatch,
    PrecisionTooLow,
    ResourceBound,
    UnknownName,
    ValueNotPinned,
)
from .ffield import prime_power
from .groupfq import named_subgroup
from .padic import estimate_Rg
from .verify_lemmas import Checks, verify_char_lemmas

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_RESOURCE = 3

FORMATS = ("json", "csv", "markdown", "plain")

SCHEMA = "1"


class UsageError(Exception):
    """Bad flags or bad flag values; reported on stderr, exit code 1."""


# (exit code, stderr prefix) -> the errors.py classes that end in it
_ERROR_EXITS = {
    (EXIT_USAGE, "usage error"): (
        KlingenError, NotPrime, MixedFields, DivisionByZero, NotSimilitude,
        UnknownName, ValueNotPinned, NotScopedClass,
    ),
    (EXIT_DISAGREE, "disagreement"): (
        DisagreementError, OrderMismatch, NonIntegralResult, NotPolynomial,
    ),
    (EXIT_DISAGREE, "verification mismatch"): (MismatchReport,),
    (EXIT_RESOURCE, "resource bound"): (
        ResourceBound, NonConvergence, DixonBoundExceeded, ClosureTooLarge,
        GroupTooLarge, FieldTooLarge, PrecisionTooLow,
    ),
}
_EXIT_OF = {cls: how for how, classes in _ERROR_EXITS.items() for cls in classes}


def _exit_for(exc: KlingenError) -> Tuple[int, str]:
    """Exit code and stderr prefix of the nearest listed class of exc."""
    return next(_EXIT_OF[c] for c in type(exc).__mro__ if c in _EXIT_OF)


def _prime_powers(qs: Sequence[int]) -> Sequence[int]:
    """qs unchanged; NotPrime (exit 1) unless every q is a prime power."""
    for q in qs:
        prime_power(q)
    return qs


# Dimensions and coset counts grow like q^floor((n - 2)/4), and Python
# prints an int of at most 4300 decimal digits.  dim, enumerate and table
# refuse (exit 3) a level where that power has more digits than this.
DIGITS_BOUND = 4000


def _printable(qs: Sequence[int], ns: Sequence[int]) -> None:
    """ResourceBound unless every (q, n) stays within DIGITS_BOUND."""
    for q in qs:
        for n in ns:
            if (n - 2) // 4 * math.log10(q) > DIGITS_BOUND:
                raise ResourceBound(
                    f"q={q} n={n}: q^floor((n-2)/4) has more than "
                    f"{DIGITS_BOUND} decimal digits, too many to print"
                )


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _seed(args: argparse.Namespace) -> int:
    """verify's RNG seed: --seed, else KLINGEN_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("KLINGEN_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"KLINGEN_SEED must be an integer, got {raw!r}")


def parse_int_list(text: str, what: str) -> List[int]:
    """Comma-separated integers with .. ranges: "2,3", "1..8", "1..4,7"."""
    out: List[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ".." in piece:
            lo_txt, _, hi_txt = piece.partition("..")
            try:
                lo, hi = int(lo_txt), int(hi_txt)
            except ValueError:
                raise UsageError(f"bad {what} range {piece!r}")
            if hi < lo:
                raise UsageError(f"empty {what} range {piece!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(piece))
            except ValueError:
                raise UsageError(f"bad {what} value {piece!r}")
    if not out:
        raise UsageError(f"{what} list is empty")
    return out


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", "-o", default="plain", choices=FORMATS,
                     help="output format (default plain)")


@functools.cache
def build_parser() -> _Parser:
    """The klingen parser, built once per process: argparse keeps no state
    between ``parse_args`` calls, so every ``main`` call shares it."""
    p = _Parser(
        prog="klingen",
        description="Fixed-vector dimensions at Klingen level for "
                    "depth-zero supercuspidal representations of GSp(4)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dim", help="one dimension, both routes")
    d.add_argument("--q", type=int, required=True, help="residue field size")
    d.add_argument("--n", type=int, required=True, help="level exponent")
    d.add_argument("--sigma", required=True,
                   help="family: chi5, chi4 (even q), x4, x5 (odd q), "
                        "typeI, typeII, nongeneric")
    d.add_argument("--origin", default=ORIGIN_K,
                   choices=(ORIGIN_K, ORIGIN_PARAMODULAR))
    d.add_argument("--mode", default="both", choices=("sum", "formula", "both"))
    _add_common(d)

    e = sub.add_parser("enumerate", help="support table at one level")
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--n", type=int, required=True)
    _add_common(e)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", choices=("all", "chartab", "counts", "rg", "theorem"))
    v.add_argument("--q", default=None,
                   help="comma-separated residue field sizes")
    v.add_argument("--n-max", type=int, default=None)
    v.add_argument("--budget", type=int, default=500,
                   help="sample budget for the rg suite")
    v.add_argument("--seed", type=int, default=None,
                   help="RNG seed of the rg suite (default: KLINGEN_SEED or 0)")
    _add_common(v)

    t = sub.add_parser("table", help="dimension grid over q and n lists")
    t.add_argument("--q", required=True, help="comma list, e.g. 2,3")
    t.add_argument("--n", required=True, help="comma list with ranges, e.g. 1..8")
    t.add_argument("--sigma", required=True)
    _add_common(t)
    return p


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit_json(payload: Dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    import csv as _csv

    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(headers)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _emit_markdown(headers: Sequence[str], rows: Sequence[Sequence],
                   notes: Sequence[str]) -> str:
    out = ["| " + " | ".join(str(h) for h in headers) + " |",
           "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(x) for x in row) + " |")
    for note in notes:
        out.append("")
        out.append(note)
    return "\n".join(out) + "\n"


def _emit_plain(headers: Sequence[str], rows: Sequence[Sequence],
                notes: Sequence[str]) -> str:
    cols = [headers] + [[str(x) for x in row] for row in rows]
    widths = [max(len(str(r[k])) for r in cols) for k in range(len(headers))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    lines.extend(notes)
    return "\n".join(lines) + "\n"


def _render(output: str, payload: Dict, headers: Sequence[str],
            rows: Sequence[Sequence], notes: Sequence[str]) -> str:
    if output == "json":
        return _emit_json(payload)
    if output == "csv":
        return _emit_csv(headers, rows)
    if output == "markdown":
        return _emit_markdown(headers, rows, notes)
    return _emit_plain(headers, rows, notes)


# ---------------------------------------------------------------------------
# dim
# ---------------------------------------------------------------------------

def cmd_dim(args: argparse.Namespace, out) -> int:
    _prime_powers([args.q])
    _printable([args.q], [args.n])
    family = family_from_name(args.sigma, args.q)
    req = DimRequest(q=args.q, n=args.n, sigma=family, origin=args.origin)
    report = dim_klingen(req, mode=args.mode)
    payload = {
        "schema": SCHEMA,
        "command": "dim",
        "q": args.q,
        "n": args.n,
        "sigma": args.sigma,
        "kind": family.kind,
        "origin": args.origin,
        "mode": args.mode,
        "total": report.total,
        "formula": report.formula_value,
        "agree": report.agree,
        "by_family": [
            {"family": f, "count": c, "per_coset_dim": tag, "subtotal": s}
            for f, c, tag, s in report.by_family
        ],
    }
    headers = ("family", "count", "per_coset_dim", "subtotal")
    rows = [list(r) for r in report.by_family]
    notes = [
        f"total {report.total}",
        f"formula {report.formula_value}",
        f"agree {'true' if report.agree else 'false'}",
    ]
    out.write(_render(args.output, payload, headers, rows, notes))
    return EXIT_OK if report.agree else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args: argparse.Namespace, out) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    _prime_powers([args.q])
    _printable([args.q], [args.n])
    type_i = family_from_name("typeI")
    type_ii = family_from_name("typeII")
    rows_out: List[Dict] = []
    if args.n >= 1:
        for fc in enumerate_supp(args.q, args.n):
            d1 = dim_fixed_family(fc.row, type_i, args.q)
            d2 = dim_fixed_family(fc.row, type_ii, args.q)
            rows_out.append({
                "family": fc.family,
                "count": fc.count,
                "dim_typeI": d1,
                "dim_typeII": d2,
                "subtotal_typeI": fc.count * d1,
                "subtotal_typeII": fc.count * d2,
            })
    total_i = sum(r["subtotal_typeI"] for r in rows_out)
    total_ii = sum(r["subtotal_typeII"] for r in rows_out)
    payload = {
        "schema": SCHEMA,
        "command": "enumerate",
        "q": args.q,
        "n": args.n,
        "rows": rows_out,
        "total_typeI": total_i,
        "total_typeII": total_ii,
    }
    notes = [f"total typeI {total_i}", f"total typeII {total_ii}"]
    if args.n == 0:
        payload["note"] = "dimension 0"
        notes = ["dimension 0"]
    headers = ("family", "count", "dim_typeI", "dim_typeII",
               "subtotal_typeI", "subtotal_typeII")
    rows = [[r[h] for h in headers] for r in rows_out]
    out.write(_render(args.output, payload, headers, rows, notes))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# the lowest level each suite taking --n-max checks, its default --n-max and
# its highest level (None: no limit); the rg suite enumerates representatives
# of the polynomial rows only, which end at level 7
_SUITE_LEVELS = {"counts": (1, 14, None), "rg": (2, 5, 7), "theorem": (0, 40, None)}


def _suite_counts(qs: List[int], n_max: int) -> Checks:
    checks = Checks()
    check = checks.check
    for q in qs:
        for n in range(_SUITE_LEVELS["counts"][0], n_max + 1):
            for row in range(1, 8):
                check(f"q={q} n={n} row{row}",
                      table1_brute_count(row, n), table1_count(row, n))
            for case in SKEW_CASES:
                check(f"q={q} n={n} {case}",
                      skew_brute_count(case, n, q), skew_closed_count(case, n, q))
        if n_max >= 8:
            check(f"q={q} zEQxy_unit witness n=8",
                  q - 2, skew_closed_count("zEQxy_unit", 8, q))
    return checks


def _suite_rg(qs: List[int], n_max: int, budget: int, seed: int) -> Checks:
    checks = Checks()
    check = checks.check
    for q in qs:
        predicted = {}  # Row k over F_q, built once for all its representatives
        for n in range(_SUITE_LEVELS["rg"][0], n_max + 1):
            for rep in enumerate_small_reps(n):
                row = row_of(rep, n)
                if row not in predicted:
                    predicted[row] = named_subgroup(f"Row{row}", q)
                pred = predicted[row]
                est = estimate_Rg(rep, n, q, budget=budget, seed=seed)
                name = f"q={q} n={n} {rep!r}"
                if est.is_subset_of(pred):
                    check(name, f"order {pred.order}", f"order {est.order}")
                else:
                    check(name, "contained in prediction", "not contained")
    return checks


def _suite_chartab() -> Checks:
    return verify_char_lemmas(2).checks


def _suite_theorem(qs: List[int], n_max: int) -> Checks:
    checks = Checks()
    check = checks.check
    type_i = family_from_name("typeI")
    type_ii = family_from_name("typeII")
    nongen = family_from_name("nongeneric")
    for q in qs:
        for n in range(_SUITE_LEVELS["theorem"][0], n_max + 1):
            try:
                r1 = dim_klingen(DimRequest(q, n, type_i), mode="both")
                r2 = dim_klingen(DimRequest(q, n, type_ii), mode="both")
            except DisagreementError as exc:
                check(f"q={q} n={n} route agreement",
                      exc.formula_value, exc.sum_value)
                continue
            check(f"q={q} n={n} typeI agree", True, r1.agree)
            check(f"q={q} n={n} typeII agree", True, r2.agree)
            check(f"q={q} n={n} family gap", 2 * ((n - 1) // 2) if n >= 1 else 0,
                  r2.total - r1.total)
            check(f"q={q} n={n} nongeneric", 0,
                  dim_klingen(DimRequest(q, n, nongen)).total)
            check(f"q={q} n={n} paramodular origin", 0,
                  dim_klingen(
                      DimRequest(q, n, type_i, origin=ORIGIN_PARAMODULAR)
                  ).total)
            if q in (2, 3) and n >= 1:
                check(f"q={q} n={n} corollary", r1.total, corollary_value(q, n))
    return checks


def cmd_verify(args: argparse.Namespace, out) -> int:
    chosen = (args.suite,) if args.suite != "all" else (
        "chartab", "counts", "rg", "theorem"
    )
    seed = _seed(args) if "rg" in chosen else None
    given = _prime_powers(parse_int_list(args.q, "--q")) if args.q else None
    if args.suite == "chartab":
        for q in given or ():
            if q != 2:
                raise UsageError(
                    f"verify chartab checks the character data at q=2 only; "
                    f"q={q} is refused, since no other q has an independent "
                    f"character-table check"
                )
    if "counts" in chosen:
        for q in given or ():
            if prime_power(q)[1] > 1:
                raise UsageError(
                    f"verify counts takes prime q only: at q={q} the skew "
                    f"oracle skew_brute_count counts over Z/q^k instead of "
                    f"o/p^k (an open defect), so its disagreements are false"
                )
    n_maxes = {}
    for name in sorted(set(chosen) & set(_SUITE_LEVELS)):
        first, default, last = _SUITE_LEVELS[name]
        n_maxes[name] = default if args.n_max is None else args.n_max
        if n_maxes[name] < first:
            raise UsageError(
                f"verify {name} checks the levels {first}..--n-max, so "
                f"--n-max {args.n_max} checks nothing; use --n-max >= {first}"
            )
        if last is not None and n_maxes[name] > last:
            raise UsageError(
                f"the {name} suite enumerates representatives of the polynomial "
                f"rows only (levels up to {last}); use --n-max <= {last}"
            )
    suites: List[Dict] = []
    for name in sorted(chosen):
        if name == "counts":
            checks = _suite_counts(given or [2, 3], n_maxes[name])
        elif name == "rg":
            checks = _suite_rg(given or [2], n_maxes[name], args.budget, seed)
        elif name == "chartab":
            checks = _suite_chartab()
        else:
            checks = _suite_theorem(given or [2, 3, 4, 5, 7], n_maxes[name])
        failures = [{"name": c.name, "expected": str(c.expected),
                     "actual": str(c.actual)} for c in checks.failures()]
        suites.append({
            "suite": name,
            "passed": not failures,
            "checks": len(checks),
            "failures": failures,
        })
    all_pass = all(s["passed"] for s in suites)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "suite": args.suite,
        "suites": suites,
        "passed": all_pass,
    }
    headers = ("suite", "passed", "checks", "failures")
    rows = [[s["suite"], "true" if s["passed"] else "false",
             s["checks"], len(s["failures"])] for s in suites]
    notes = []
    for s in suites:
        for f in s["failures"]:
            notes.append(
                f"FAIL {s['suite']} {f['name']}: "
                f"expected {f['expected']}, got {f['actual']}"
            )
    notes.append("pass" if all_pass else "fail")
    out.write(_render(args.output, payload, headers, rows, notes))
    return EXIT_OK if all_pass else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(args: argparse.Namespace, out) -> int:
    q_list = _prime_powers(parse_int_list(args.q, "--q"))
    n_list = parse_int_list(args.n, "--n")
    _printable(q_list, n_list)
    families = {q: family_from_name(args.sigma, q) for q in q_list}
    grid = []
    for n in n_list:
        row = []
        for q in q_list:
            req = DimRequest(q=q, n=n, sigma=families[q])
            row.append(dim_klingen(req, mode="both").total)
        grid.append(row)
    kind = families[q_list[0]].kind
    payload = {
        "schema": SCHEMA,
        "command": "table",
        "sigma": args.sigma,
        "kind": kind,
        "q": q_list,
        "n": n_list,
        "grid": grid,
    }
    headers = ["n"] + [f"q={q}" for q in q_list]
    rows = [[n] + grid[k] for k, n in enumerate(n_list)]
    out.write(_render(args.output, payload, headers, rows, []))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "dim": cmd_dim,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "table": cmd_table,
}


def main(argv: Optional[Sequence[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except KlingenError as exc:
        code, prefix = _exit_for(exc)
        err.write(f"{prefix}: {exc}\n")
        return code
    except ValueError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
