"""The three workloads: each builds one round, a fixed list of ops, from
its seed.  An op's ``run`` is the timed call into klingen; its ``check``
runs untimed right after and returns problems; both see the round's
``state`` dict, and ``end_round`` adds the checks that compare ops of the
same round.  Program functions are looked up on their modules at call
time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from klingen import chartab, cli, cosets, groupfq, padic, verify_lemmas

import checks


@dataclass
class Op:
    label: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list]
    known_fault: bool = False


class Workload:
    """One round of ops; ``prepare`` is the untimed set-up counted in
    setup_s, ``check_prepared`` checks what it built."""

    ops: list

    def prepare(self) -> None:
        pass

    def check_prepared(self) -> list:
        return []

    def new_state(self) -> dict:
        return {}

    def end_round(self, state) -> dict:
        return {}


def _pairs(subgroup) -> list:
    return [(g.mat.e, g.mu.encoding()) for g in subgroup.elements]


# ---------------------------------------------------------------------------
# census: the CLI query path, cosets and dims only
# ---------------------------------------------------------------------------

class Census(Workload):
    """CLI ``dim``, ``table`` and ``enumerate`` over seeded levels n <= 300
    at every q below, plus the counting oracles against the closed counts.

    The oracle list is fixed, so a round costs the same on every seed.
    Skew counts at prime powers q in {4, 8, 9} are known faults: the oracle
    counts over Z/q^k instead of o/p^k.
    """

    name = "census"
    QS = (2, 3, 4, 5, 7, 8, 9)
    N_MAX = 300
    LEVELS_PER_Q = 6
    # levels spaced so the oracle costs form a continuum (no gap at p90)
    BRUTE = {2: (8, 10, 12, 14, 16, 18, 20), 3: (8, 10, 12, 14, 16, 18, 20),
             5: (8, 10, 12, 14, 16, 18), 7: (8, 10, 12, 14, 16)}
    BRUTE_PRIME_POWER = {4: (8, 10), 8: (8, 10), 9: (8, 10)}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ops = []
        for q in self.QS:
            ns = [0, 1] + rng.sample(range(2, self.N_MAX + 1), self.LEVELS_PER_Q)
            for sigma in ("typeI", "typeII"):
                ops.append(self._table_op(q, ns, sigma))
                for n in ns:
                    ops.append(self._dim_op(q, n, sigma, "K", rng.choice(("json", "plain"))))
            ops.append(self._dim_op(q, rng.choice(ns), "nongeneric", "K", "json"))
            ops.append(self._dim_op(q, rng.choice(ns), "typeI", "paramodular", "plain"))
            for n in rng.sample(ns, 2):
                ops.append(self._enumerate_op(q, n))
        for n in sorted({n for ns in self.BRUTE.values() for n in ns}):
            ops.append(self._table1_op(n))
        for table, known in ((self.BRUTE, False), (self.BRUTE_PRIME_POWER, True)):
            for q, ns in table.items():
                for n in ns:
                    for case in cosets.SKEW_CASES:
                        ops.append(self._skew_op(case, n, q, known))
        rng.shuffle(ops)
        self.ops = ops

    @staticmethod
    def _cli(argv):
        out, err = io.StringIO(), io.StringIO()
        return cli.main(argv, out, err), out.getvalue(), err.getvalue()

    @staticmethod
    def _exit_problems(label, result) -> list:
        rc, _, err = result
        return [] if rc == 0 else [f"{label}: exit {rc}: {err.strip()}"]

    def _table_op(self, q, ns, sigma) -> Op:
        argv = ["table", "--q", str(q), "--n", ",".join(map(str, ns)),
                "--sigma", sigma, "-o", "json"]
        label = f"table q={q} {sigma}"

        def check(result, state):
            problems = self._exit_problems(label, result)
            if not problems:
                grid = json.loads(result[1])["grid"]
                for n, row in zip(ns, grid):
                    state["table"][(q, n, sigma)] = row[0]
                    state["totals"].append((label, q, n, sigma, "K", row[0]))
            return problems
        return Op(label, lambda state: self._cli(argv), check)

    def _dim_op(self, q, n, sigma, origin, fmt) -> Op:
        argv = ["dim", "--q", str(q), "--n", str(n), "--sigma", sigma,
                "--origin", origin, "-o", fmt]
        label = f"dim q={q} n={n} {sigma} {origin}"

        def check(result, state):
            problems = self._exit_problems(label, result)
            if not problems:
                if fmt == "json":
                    total = json.loads(result[1])["total"]
                else:
                    line = next(x for x in result[1].splitlines() if x.startswith("total "))
                    total = int(line.split()[1])
                state["totals"].append((label, q, n, sigma, origin, total))
            return problems
        return Op(label, lambda state: self._cli(argv), check)

    def _enumerate_op(self, q, n) -> Op:
        argv = ["enumerate", "--q", str(q), "--n", str(n), "-o", "json"]
        label = f"enumerate q={q} n={n}"

        def check(result, state):
            problems = self._exit_problems(label, result)
            if not problems:
                payload = json.loads(result[1])
                for sigma in ("typeI", "typeII"):
                    state["totals"].append((label, q, n, sigma, "K",
                                            payload[f"total_{sigma}"]))
            return problems
        return Op(label, lambda state: self._cli(argv), check)

    @staticmethod
    def _table1_op(n) -> Op:
        def check(counts, state):
            return [f"row{row} n={n}: brute {got}, closed {cosets.table1_count(row, n)}"
                    for row, got in zip(range(1, 8), counts)
                    if got != cosets.table1_count(row, n)]
        return Op(f"table1_brute n={n}",
                  lambda state: [cosets.table1_brute_count(row, n) for row in range(1, 8)],
                  check)

    @staticmethod
    def _skew_op(case, n, q, known) -> Op:
        label = f"skew_brute {case} n={n} q={q}"

        def check(count, state):
            want = cosets.skew_closed_count(case, n, q)
            return [] if count == want else [f"{label}: brute {count}, closed {want}"]
        return Op(label, lambda state: cosets.skew_brute_count(case, n, q), check, known)

    def new_state(self) -> dict:
        return {"table": {}, "totals": []}

    def end_round(self, state) -> dict:
        """Every total against the corollary, the zero rules, the family gap
        and the table cell of the same round."""
        problems = {}
        for label, q, n, sigma, origin, total in state["totals"]:
            found = checks.dim_problems(q, n, sigma, origin, total, state["table"])
            if found:
                problems.setdefault(label, []).extend(found)
        return problems


# ---------------------------------------------------------------------------
# finite-groups: F_q arithmetic, classify, Dixon-Schneider, one big closure
# ---------------------------------------------------------------------------

class FiniteGroups(Workload):
    """Every named subgroup at q in {2, 3, 4} and the cheaper ones at q = 5,
    each with dim_fixed for typeI and typeII against dim_fixed_family; the
    character-data verification at q = 2; GSp(4, 3) by closure."""

    name = "finite-groups"
    QS = (2, 3, 4)
    # q = 5 only for its cheaper groups, whose dim_fixed times (90-240 ms)
    # also fill the gap below the q = 4 ones at the 90th percentile
    Q5_NAMES = ("U_S", "U_K", "M1", "R_last", "B", "Row4", "Z_ray")
    FAMILIES = ("typeI", "typeII")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        groups = [self._subgroup_ops(name, q)
                  for q in self.QS for name in groupfq.NAMED_SUBGROUP_NAMES]
        groups += [self._subgroup_ops(name, 5) for name in self.Q5_NAMES]
        groups += [[self._lemmas_op()], [self._gsp4_op(3)]]
        self.rng.shuffle(groups)
        self.ops = [op for group in groups for op in group]

    def prepare(self) -> None:
        # field tables for every q, built lazily by the first matrix product
        for q in self.QS + (5,):
            groupfq.named_subgroup("Z_ray", q)

    def _subgroup_ops(self, name, q) -> list:
        rng = self.rng
        families = () if name == "Z_ray" else self.FAMILIES

        def check_build(sub, state):
            if families:
                state[(name, q)] = sub
            return checks.subgroup_problems(q, name, _pairs(sub), rng)
        ops = [Op(f"named_subgroup {name} q={q}",
                  lambda state: groupfq.named_subgroup(name, q), check_build)]
        for fam in families:
            sigma = chartab.family_from_name(fam)

            def run(state, sigma=sigma):
                return chartab.dim_fixed(state[(name, q)], sigma, q)

            def check(dim, state, fam=fam, sigma=sigma):
                if fam == families[-1]:
                    del state[(name, q)]
                want = chartab.dim_fixed_family(name, sigma, q)
                return [] if dim == want else [
                    f"dim_fixed {name} q={q} {fam}: {dim}, closed {want}"]
            ops.append(Op(f"dim_fixed {name} q={q} {fam}", run, check))
        return ops

    def _lemmas_op(self) -> Op:
        def check(report, state):
            problems = [] if report.ok else [f"verify_char_lemmas: {report.failures()}"]
            return problems + checks.degree_problems(report.table.degrees,
                                                     report.table.n_classes)
        return Op("verify_char_lemmas q=2", lambda state: verify_lemmas.verify_char_lemmas(2),
                  check)

    def _gsp4_op(self, q) -> Op:
        rng = self.rng

        def check(group, state):
            return checks.subgroup_problems(q, "GSp4", _pairs(group), rng, samples=64)
        return Op(f"enumerate_gsp4 q={q}", lambda state: groupfq.enumerate_gsp4(q), check)


# ---------------------------------------------------------------------------
# rg-sampler: truncated p-adic sampling and many small closures
# ---------------------------------------------------------------------------

class RgSampler(Workload):
    """estimate_Rg for every polynomial-row representative, against the
    predicted Row k subgroup, at q = 2 (n <= 7), q = 3 (n <= 4, the numpy
    closure path) and q = 4 (n <= 3, the generic closure path).

    The sampler seed stays 0 on every benchmark seed, so the two known
    faults below fail in every round; the benchmark seed orders the ops and
    draws the products the checks test.
    """

    name = "rg-sampler"
    LEVELS = ((2, 7), (3, 4), (4, 3))
    BUDGET = 500
    SAMPLER_SEED = 0
    # estimate_Rg stops on order 2 instead of 4 for these at sampler seed 0
    KNOWN_FAULTS = {(2, 6, "Diagonal(i=-3, j=8)"), (2, 7, "Diagonal(i=-3, j=7)")}

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        ops = []
        for q, n_max in self.LEVELS:
            for n in range(2, n_max + 1):
                for rep in cosets.enumerate_small_reps(n):
                    ops.append(self._op(rep, n, q, cosets.row_of(rep, n)))
        self.rng.shuffle(ops)
        self.ops = ops
        self.predicted = {}

    def prepare(self) -> None:
        for q, _ in self.LEVELS:
            for row in range(1, 8):
                self.predicted[(q, row)] = groupfq.named_subgroup(f"Row{row}", q)

    def check_prepared(self) -> list:
        problems = []
        for (q, row), sub in self.predicted.items():
            problems += checks.subgroup_problems(q, f"Row{row}", _pairs(sub), self.rng)
        self.predicted_keys = {k: {g.mat.e for g in sub.elements}
                               for k, sub in self.predicted.items()}
        return problems

    def _op(self, rep, n, q, row) -> Op:
        rng = self.rng

        def run(state):
            return padic.estimate_Rg(rep, n, q, budget=self.BUDGET, seed=self.SAMPLER_SEED)

        def check(est, state):
            return checks.estimate_problems(q, row, _pairs(est),
                                            self.predicted_keys[(q, row)], rng)
        return Op(f"estimate_Rg q={q} n={n} {rep!r}", run, check,
                  (q, n, repr(rep)) in self.KNOWN_FAULTS)


WORKLOADS = {cls.name: cls for cls in (Census, FiniteGroups, RgSampler)}
