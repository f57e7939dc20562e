"""Matrix-group layer: similitude structure, subgroups, closures, classes."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_orders import named_subgroup_order
from klingen import ffield, groupfq as gq
from klingen.errors import (
    GroupTooLarge,
    MixedFields,
    NotSimilitude,
    OrderMismatch,
    UnknownName,
)
from klingen.ffield import field_for_q


def _similitude(m):
    """The similitude test on the entry tuple of the Mat4 m."""
    return gq._similitude_enc(m.e, ffield.tables(m.spec))


class TestSimilitude:
    def test_j_is_symplectic(self):
        """J itself lies in Sp(4): t(J) J J = J."""
        for q in (2, 3, 4, 5):
            j = gq.j_matrix(field_for_q(q))
            assert _similitude(j) == field_for_q(q).one.encoding()

    def test_root_elements_are_symplectic(self):
        for q in (2, 3, 4, 5):
            spec = field_for_q(q)
            for t in ffield.enumerate_field(spec):
                for i in range(4):
                    assert _similitude(gq.pos_root_elem(spec, i, t)) == spec.one.encoding()
                    assert _similitude(gq.neg_root_elem(spec, i, t)) == spec.one.encoding()

    def test_similitude_diag(self):
        spec = field_for_q(5)
        m = gq.Mat4.diag(spec, 2, 2, 1, 1)
        assert _similitude(m) == spec(2).encoding()

    def test_not_similitude(self):
        spec = field_for_q(3)
        bad = gq.Mat4.from_rows(
            spec, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert _similitude(bad) == 0
        with pytest.raises(NotSimilitude):
            gq.gsp_elem(bad)

    def test_group_laws_random(self):
        """g * g^{-1} = 1, det g = mu^2, mu multiplicative, on random elements."""
        rng = random.Random(7)
        for q in (2, 3, 4, 5):
            spec = field_for_q(q)
            pool = gq.named_subgroup("Row1", q).elements
            ident = gq.Mat4.identity(spec)
            for _ in range(25):
                g = rng.choice(pool)
                h = rng.choice(pool)
                assert (g * g.inverse()).mat == ident
                assert _ref_det(_ref_rows(g.mat)) == g.mu * g.mu
                assert (g * h).mu == g.mu * h.mu
                assert (g * h).inverse().mat == (h.inverse() * g.inverse()).mat


# -- a plain FqElem reference for the similitude test and the group law ------

def _ref_rows(m):
    return [[m.entry(r, c) for c in range(4)] for r in range(4)]


def _ref_product(a, b):
    zero = a[0][0].spec.zero
    return [[sum((a[r][k] * b[k][c] for k in range(4)), zero) for c in range(4)]
            for r in range(4)]


def _ref_transpose(a):
    return [[a[c][r] for c in range(4)] for r in range(4)]


def _ref_j(spec):
    one, zero = spec.one, spec.zero
    return [[zero, zero, zero, one], [zero, zero, one, zero],
            [zero, -one, zero, zero], [-one, zero, zero, zero]]


def _ref_similitude(a):
    """mu with t(a) J a = mu J over FqElem rows, or None."""
    spec = a[0][0].spec
    j = _ref_j(spec)
    form = _ref_product(_ref_product(_ref_transpose(a), j), a)
    mu = form[0][3]
    if mu.is_zero():
        return None
    if any(form[r][c] != mu * j[r][c] for r in range(4) for c in range(4)):
        return None
    return mu


def _ref_det(a):
    """Laplace expansion along rows 1 and 2: over the column pairs c < d
    (0-based), (-1)^(c + d + 1) times the minor of rows 1, 2 in columns c, d
    times the complementary minor of rows 3, 4."""
    def minor(r, c, d):
        return a[r][c] * a[r + 1][d] - a[r][d] * a[r + 1][c]

    total = a[0][0].spec.zero
    for c, d in itertools.combinations(range(4), 2):
        e, f = (x for x in range(4) if x not in (c, d))
        term = minor(0, c, d) * minor(2, e, f)
        total = total + term if (c + d) % 2 else total - term
    return total


def _ref_inverse(a):
    """Gauss-Jordan on [a | I] over FqElem."""
    spec = a[0][0].spec
    aug = [list(a[r]) + [spec.one if r == c else spec.zero for c in range(4)]
           for r in range(4)]
    for col in range(4):
        piv = next(r for r in range(col, 4) if not aug[r][col].is_zero())
        aug[col], aug[piv] = aug[piv], aug[col]
        s = aug[col][col].inverse()
        aug[col] = [x * s for x in aug[col]]
        for r in range(4):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[4:] for row in aug]


@lru_cache(maxsize=None)
def _gen_rows(q):
    return tuple(_ref_rows(g.mat) for g in gq.gsp4_generators(field_for_q(q)))


def _draw_word(data, q, label):
    gens = _gen_rows(q)
    word = data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=6),
                     label=label)
    rows = [list(row) for row in gens[word[0]]]
    for i in word[1:]:
        rows = _ref_product(rows, gens[i])
    return rows


class TestEncodingValidator:
    """_similitude_enc on entry tuples, gsp_elem and the group law on
    encodings against the FqElem reference above, on random words in the
    generators of GSp(4, q), on copies with one entry changed and on
    arbitrary matrices."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_validator(self, q, data):
        spec = field_for_q(q)
        kind = data.draw(st.sampled_from(["word", "changed", "arbitrary"]), label="kind")
        if kind == "arbitrary":  # nearly never a similitude
            rows = [[spec.from_encoding(data.draw(st.integers(0, q - 1), label="entry"))
                     for _ in range(4)] for _ in range(4)]
        else:
            rows = _draw_word(data, q, "word")
        if kind == "changed":
            r = data.draw(st.integers(0, 3), label="row")
            c = data.draw(st.integers(0, 3), label="column")
            rows[r][c] = spec.from_encoding(data.draw(st.integers(0, q - 1), label="value"))
        m = gq.Mat4.from_rows(spec, rows)
        mu = _ref_similitude(rows)
        det = _ref_det(rows)
        assert _similitude(m) == (0 if mu is None else mu.encoding())
        if mu is None or det != mu * mu:
            with pytest.raises(NotSimilitude):
                gq.gsp_elem(m)
        else:
            g = gq.gsp_elem(m)
            assert (g.mat, g.mu) == (m, mu)

    @pytest.mark.parametrize("q", [2, 3])
    def test_every_form_entry_decides(self, q):
        """I + a E_rc moves only entries (c, 4 - r) and (4 - r, c) of
        t(m) J m (1-based), and diag(1, 1, 1, a) only (1, 4): between them
        each of the six entries above the diagonal alone decides a verdict
        here, so the validator must read all six."""
        spec = field_for_q(q)
        one = spec.one
        cases = [[[spec(a if r == 3 == c else int(r == c)) for c in range(4)] for r in range(4)]
                 for a in range(1, q)]
        for r, c in itertools.permutations(range(4), 2):
            for a in range(1, q):
                rows = [[one if i == j else spec.zero for j in range(4)] for i in range(4)]
                rows[r][c] = spec(a)
                cases.append(rows)
        for rows in cases:
            mu = _ref_similitude(rows)
            assert _similitude(gq.Mat4.from_rows(spec, rows)) == (
                0 if mu is None else mu.encoding()), rows

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_group_law(self, q, data):
        spec = field_for_q(q)
        a_rows, b_rows = _draw_word(data, q, "a"), _draw_word(data, q, "b")
        a = gq.gsp_elem(gq.Mat4.from_rows(spec, a_rows))
        b = gq.gsp_elem(gq.Mat4.from_rows(spec, b_rows))
        ab = a * b
        assert ab.mat == gq.Mat4.from_rows(spec, _ref_product(a_rows, b_rows))
        assert ab.mu == _ref_similitude(a_rows) * _ref_similitude(b_rows)
        a_inv = a.inverse()
        assert a_inv.mat == gq.Mat4.from_rows(spec, _ref_inverse(a_rows))
        assert a_inv.mu == _ref_similitude(a_rows).inverse()


class TestNamedSubgroups:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_orders_match_closed_forms(self, q):
        for name in gq.NAMED_SUBGROUP_NAMES:
            sg = gq.named_subgroup(name, q)
            assert sg.order == named_subgroup_order(name, q), name

    def test_aliases(self):
        for alias, base in (("Row2", "C"), ("Row3", "M"), ("Row4", "B")):
            a = gq.named_subgroup(alias, 3)
            b = gq.named_subgroup(base, 3)
            assert a.same_elements(b)

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            gq.named_subgroup("Q", 3)

    def test_tuple_that_is_not_a_similitude_is_refused(self, monkeypatch):
        """named_subgroup validates every entry tuple it is handed: one that
        is not a similitude raises NotSimilitude naming the matrix."""
        bad = (1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
        monkeypatch.setattr(gq, "_named_elements", lambda name, spec: iter([bad]))
        with pytest.raises(NotSimilitude, match=r"not a similitude matrix: Mat4\(F3; 1 1 0 0 \|"):
            gq.named_subgroup("Row5", 3)

    def test_size_bound(self, monkeypatch):
        """A parameterization that yields more than CLOSURE_BOUND tuples is
        refused with GroupTooLarge naming the group, q and the bound, before
        any tuple is built; at the bound the group is built."""
        monkeypatch.setattr(gq, "CLOSURE_BOUND", 63)
        with monkeypatch.context() as m:
            m.setattr(gq, "_named_elements", None)  # building would raise TypeError
            with pytest.raises(GroupTooLarge):
                gq.named_subgroup("C", 3)
        with pytest.raises(GroupTooLarge, match=r"U_S over F_4 has more than 63 elements"):
            gq.named_subgroup("U_S", 4)
        with pytest.raises(GroupTooLarge, match=r"Row1 over F_3 has more than 63 elements"):
            gq.named_subgroup("Row1", 3)  # D: (q - 1)^3 q^2 = 72
        monkeypatch.setattr(gq, "CLOSURE_BOUND", 64)
        assert gq.named_subgroup("U_S", 4).order == 64

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_named_size_counts_the_tuples(self, q):
        """The size named_subgroup refuses by is the number of tuples the
        parameterization yields."""
        spec = field_for_q(q)
        for name in gq._NAMED_LOOPS:
            count = sum(1 for _ in gq._named_elements(name, spec))
            assert gq._named_size(name, q) == count, name

    @pytest.mark.parametrize("q", [2, 3])
    def test_all_named_sets_are_groups(self, q):
        """Scan parameterizations are closed under multiplication and inverse."""
        for name in gq.NAMED_SUBGROUP_NAMES:
            sg = gq.named_subgroup(name, q)
            for g in sg.elements:
                assert g.inverse() in sg, name
            for a in sg.elements:
                for b in sg.elements:
                    assert (a * b) in sg, name

    @pytest.mark.parametrize("q", [4, 5])
    def test_groups_sampled_closure(self, q):
        rng = random.Random(11)
        for name in gq.NAMED_SUBGROUP_NAMES:
            sg = gq.named_subgroup(name, q)
            for _ in range(100):
                a = rng.choice(sg.elements)
                b = rng.choice(sg.elements)
                assert (a * b) in sg, name
                assert a.inverse() in sg, name

    def test_m1_is_m_intersect_r_klingen(self):
        """M1 = M intersected with the Klingen-lemma R (order q(q^2-1))."""
        for q in (2, 3):
            m = gq.named_subgroup("M", q)
            r = gq.named_subgroup("R_klingen", q)
            inter = [g for g in m.elements if g in r]
            m1 = gq.named_subgroup("M1", q)
            assert sorted(g.key() for g in inter) == [g.key() for g in m1.elements]
            assert m1.order == q * (q * q - 1)

    def test_r_last_inside_row8(self):
        for q in (2, 3):
            r = gq.named_subgroup("R_last", q)
            row8 = gq.named_subgroup("Row8", q)
            assert r.is_subset_of(row8)
            assert row8.order == (q - 1) * r.order

    def test_us_uk_orders(self):
        for q in (2, 3, 4, 5):
            assert gq.named_subgroup("U_S", q).order == q**3
            assert gq.named_subgroup("U_K", q).order == q**3

    def test_upper_unipotent(self):
        """U is the closure of the positive root groups, with mu 1."""
        for q in (2, 3, 4):
            spec = field_for_q(q)
            u = gq.upper_unipotent(spec)
            assert u.order == q**4
            roots = [gq.gsp_elem(gq.pos_root_elem(spec, i, t))
                     for i in range(4) for t in ffield.enumerate_field(spec)]
            assert u.same_elements(gq.subgroup_closure(roots))
            assert (u.mus == spec.one.encoding()).all()

    def test_upper_unipotent_not_injective(self, monkeypatch):
        """Root groups whose products repeat an element are refused with
        OrderMismatch naming q and both counts."""
        positions = gq.POS_ROOT_POSITIONS
        monkeypatch.setattr(gq, "POS_ROOT_POSITIONS", positions[:3] + positions[2:3])
        with pytest.raises(OrderMismatch, match=r"^U over F_3: 27 distinct of 81 "
                                                 r"products, expected 81 elements$"):
            gq.upper_unipotent(field_for_q(3))


def _ref_closure(gens):
    """(matrix encodings, mu encoding) of every element of the group that the
    GSpElems ``gens`` generate: a BFS from the identity over FqElem rows.
    Each generator's mu comes from the full t(g) J g, and a product's mu is
    the product of its factors' mus."""
    spec = gens[0].spec
    gen_rows = [_ref_rows(g.mat) for g in gens]
    gen_pairs = [(rows, _ref_similitude(rows)) for rows in gen_rows]
    ident = [[spec.one if r == c else spec.zero for c in range(4)] for r in range(4)]

    def key(rows):
        return tuple(x.encoding() for row in rows for x in row)

    known = {key(ident): spec.one}
    frontier = [(ident, spec.one)]
    while frontier:
        new = []
        for rows, mu in frontier:
            for g, g_mu in gen_pairs:
                prod = _ref_product(rows, g)
                k = key(prod)
                if k not in known:
                    known[k] = mu * g_mu
                    new.append((prod, known[k]))
        frontier = new
    return {(k, mu.encoding()) for k, mu in known.items()}


def _pairs(sub):
    return {(g.mat.e, g.mu.encoding()) for g in sub.elements}


def _root_pair_and_torus(q):
    """The short-root elements x_a(1), x_-a(1) and the similitude
    diag(c, c, 1, 1) for a primitive c (the identity at q = 2)."""
    spec = field_for_q(q)
    c = ffield.primitive_unit(spec)
    return [gq.gsp_elem(gq.pos_root_elem(spec, 0, spec.one)),
            gq.gsp_elem(gq.neg_root_elem(spec, 0, spec.one)),
            gq.gsp_elem(gq.Mat4.diag(spec, c, c, 1, 1))]


def _same_closure(a, b):
    return (a.generators == b.generators and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.mus, b.mus))


class TestClosure:
    def test_closure_matches_reference_bfs(self):
        """The closure of the GSp(4, 2) generators against the FqElem
        reference BFS."""
        gens = gq.gsp4_generators(field_for_q(2))
        sub = gq.subgroup_closure(gens)
        ref = _ref_closure(gens)
        assert _pairs(sub) == ref
        assert sub.order == len(ref) == 720

    def test_closure_bound(self, monkeypatch):
        from klingen.errors import ClosureTooLarge

        monkeypatch.setattr(gq, "CLOSURE_BOUND", 1000)
        gens = gq.gsp4_generators(field_for_q(3))
        with pytest.raises(ClosureTooLarge):
            gq.subgroup_closure(gens)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_several_generators_against_reference(self, q):
        """Closures of a root pair and a torus element against the FqElem
        reference BFS, also with a generator repeated and with generators
        already in the group (x_a(1) x_-a(1), t^2, and t itself at q = 2)."""
        a, b, t = _root_pair_and_torus(q)
        ref = _ref_closure([a, b, t])
        for gens in ([a, b, t], [t, a, b, a], [a, b, a * b, t, t * t]):
            assert _pairs(gq.subgroup_closure(gens)) == ref

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_generator_order(self, q):
        """The same rows and mus under every order of three generators, each
        adjoined to a different group before it; at q = 3 also for two roots
        that do not commute."""
        sets = [_root_pair_and_torus(q)]
        if q == 3:
            spec = field_for_q(q)
            sets.append([gq.gsp_elem(gq.pos_root_elem(spec, i, spec.one))
                         for i in (0, 1)] + sets[0][2:])
        for gens in sets:
            first = gq.subgroup_closure(gens)
            for perm in itertools.permutations(gens):
                sub = gq.subgroup_closure(perm)
                assert sub.generators == perm
                assert np.array_equal(sub.rows, first.rows)
                assert np.array_equal(sub.mus, first.mus)

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_adjoin_is_one_closure_step(self, q):
        a, b, t = _root_pair_and_torus(q)
        for gens, g in (([a], b), ([a, b], t), ([a, b, t], a * b), ([t], t)):
            assert _same_closure(gq.adjoin(gq.subgroup_closure(gens), g),
                                 gq.subgroup_closure(gens + [g]))
        group = gq.make_subgroup([gq.gsp_elem(gq.Mat4.identity(a.spec))])
        for g in (a, b, t):
            group = gq.adjoin(group, g)
        assert _same_closure(group, gq.subgroup_closure([a, b, t]))

    def test_products_formed(self, monkeypatch):
        """While the group so far is trivial a coset is its representative:
        closing a cyclic group of order m takes one product for each power
        t^2, ..., t^m and two for mu, and a generator already in the group
        takes none."""
        spec = field_for_q(5)
        c = ffield.primitive_unit(spec)
        t = gq.gsp_elem(gq.Mat4.diag(spec, c, c, 1, 1))
        calls = []
        matmul = gq._fq_matmul
        monkeypatch.setattr(gq, "_fq_matmul",
                            lambda *args: calls.append(args) or matmul(*args))
        for gens in ([t], [t, t], [t, t * t]):
            calls.clear()
            assert gq.subgroup_closure(gens).order == 4
            assert len(calls) == 4 + 1

    def test_closure_of_scan_is_scan(self):
        for name in ("S", "A", "B", "R_last", "M1", "Row8"):
            sg = gq.named_subgroup(name, 3)
            assert gq.subgroup_closure(sg.elements).same_elements(sg)


    @pytest.mark.parametrize("q", [89, 97, 509, 8, 25, 27, 256])
    def test_dtype_boundary(self, q):
        """The closure against the FqElem reference BFS on either side of the
        int16 product bound 4 (p - 1)^2 < 2^15 (p = 89 is the last prime
        under it), and over extension fields whose moduli have several
        nonzero coefficients (q = 8, 27, 256), a coefficient 2 (q = 25, 27)
        and degree 8 (q = 256).  Each set is closed alone: a root element of
        order p, a torus element of order q - 1, whose powers run through
        every unit, and in odd characteristic a +-1 similitude whose square
        has entry (4,4) summing four products (p - 1)^2, the largest a
        product entry can reach at f = 1."""
        spec = field_for_q(q)
        c = ffield.primitive_unit(spec)
        cases = [(gq.pos_root_elem(spec, 3, spec.one), spec.p),
                 (gq.Mat4.diag(spec, c, c, 1, 1), q - 1)]
        if spec.p > 2:
            minus = spec.from_encoding(spec.p - 1)
            dense = gq.Mat4.from_rows(spec, [[1, 1, -1, -1], [1, -1, 1, -1],
                                             [-1, 1, 1, -1], [-1, -1, -1, -1]])
            assert [dense.entry(3, c_) for c_ in range(4)] == [minus] * 4
            assert [dense.entry(r, 3) for r in range(4)] == [minus] * 4
            cases.append((dense, None))
        for gen, order in cases:
            gens = [gq.gsp_elem(gen)]
            sub = gq.subgroup_closure(gens)
            ref = _ref_closure(gens)
            assert _pairs(sub) == ref
            assert sub.order == len(ref)
            if order:
                assert sub.order == order


class TestTrustedClosure:
    """Closure validates its generators and trusts their products; the mu
    it attaches from the (1,4) entry of t(g) J g must be the true one."""

    @staticmethod
    def _assert_similitudes(elems):
        for g in elems:
            assert _similitude(g.mat) == g.mu.encoding()
            assert _ref_det(_ref_rows(g.mat)) == g.mu * g.mu

    def test_gsp4_3_sampled(self):
        group = gq.enumerate_gsp4(3)
        self._assert_similitudes(random.Random(5).sample(group.elements, 400))

    @pytest.mark.parametrize("q", [4, 9])
    @pytest.mark.parametrize("root", [2, 3])
    def test_extension_field(self, q, root):
        """A torus element with the +/- root groups of a1+a2 (entries 31
        and 24 both nonzero) or of 2a1+a2 (entries 41 and 14)."""
        spec = field_for_q(q)
        alpha = spec.from_encoding(spec.p)  # the root of the modulus
        gens = [gq.gsp_elem(gq.Mat4.diag(spec, alpha, alpha, 1, 1)),
                gq.gsp_elem(gq.pos_root_elem(spec, root, alpha)),
                gq.gsp_elem(gq.neg_root_elem(spec, root, spec.one))]
        sub = gq.subgroup_closure(gens)
        assert sub.order == (2880 if q == 9 else 180)
        self._assert_similitudes(sub.elements)

    def test_estimate_rg_result(self):
        from klingen import cosets, padic

        for q in (3, 4):
            for rep in itertools.islice(cosets.enumerate_small_reps(4), 4):
                est = padic.estimate_Rg(rep, 4, q, budget=200, seed=1)
                self._assert_similitudes(est.elements)

    def test_hand_built_generator_rejected(self):
        for q in (3, 4):
            spec = field_for_q(q)
            bad = gq.Mat4.from_rows(
                spec, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
            )
            good = gq.gsp_elem(gq.Mat4.identity(spec))
            with pytest.raises(NotSimilitude):
                gq.subgroup_closure([good, gq.GSpElem(bad, spec.one)])

    def test_wrong_mu_rejected(self):
        spec = field_for_q(5)
        m = gq.Mat4.diag(spec, 2, 2, 1, 1)  # mu = 2
        with pytest.raises(NotSimilitude):
            gq.subgroup_closure([gq.GSpElem(m, spec(3))])
        with pytest.raises(NotSimilitude):
            gq.adjoin(gq.subgroup_closure([gq.gsp_elem(m)]), gq.GSpElem(m, spec(3)))


class TestFullGroup:
    def test_gsp4_2(self):
        g = gq.enumerate_gsp4(2)
        assert g.order == 720 == gq.gsp4_order(2)

    def test_gsp4_3(self):
        g = gq.enumerate_gsp4(3)
        assert g.order == 103680 == gq.gsp4_order(3)

    @pytest.mark.parametrize("q", [2, 3])
    def test_bruhat_cells_match_closure(self, q):
        """The Bruhat build has the rows, mus and generators of the closure
        of its generators, the independent oracle."""
        group = gq.enumerate_gsp4(q)
        oracle = gq.subgroup_closure(gq.gsp4_generators(field_for_q(q)))
        assert np.array_equal(group.rows, oracle.rows)
        assert np.array_equal(group.mus, oracle.mus)
        assert group.generators == oracle.generators

    def test_missing_cell_is_refused(self, monkeypatch):
        """Without one Weyl representative the cells fall short of the
        order: OrderMismatch naming q and both counts."""
        monkeypatch.setattr(gq, "_WEYL_WORDS", gq._WEYL_WORDS[:-1])
        with pytest.raises(OrderMismatch, match=r"^GSp\(4,3\) over F_3: 51192 distinct of "
                                                 r"51192 products, expected 103680 elements$"):
            gq.enumerate_gsp4(3)

    def test_materialize_refused_above_3(self):
        for q in (4, 5):
            with pytest.raises(GroupTooLarge, match="cannot be materialized$"):
                gq.enumerate_gsp4(q)


class TestConjugacyClasses:
    def test_gsp4_2_class_structure(self):
        """GSp(4,2) is S6: 11 classes with the familiar sizes."""
        classes = gq.conjugacy_classes(gq.enumerate_gsp4(2))
        assert len(classes) == 11
        assert sorted(c.size for c in classes) == [
            1, 15, 15, 40, 40, 45, 90, 90, 120, 120, 144,
        ]
        assert sum(c.size for c in classes) == 720

    def test_class_invariance(self):
        """Conjugating a class representative lands inside its class."""
        group = gq.enumerate_gsp4(2)
        classes = gq.conjugacy_classes(group)
        rng = random.Random(3)
        for cls in classes:
            for _ in range(5):
                h = rng.choice(group.elements)
                assert h * cls.rep * h.inverse() in cls.elements

    @pytest.mark.parametrize("q, name", [
        (2, "GSp4"), (3, "Row5"), (3, "R_klingen"), (4, "B"), (5, "M1"),
    ])
    def test_against_orbit_bfs(self, q, name):
        """Class order, reps and sorted elements against the orbit BFS over
        GSpElem products, on GSp(4,2) (conjugated by its generators) and on
        named subgroups, which have no generators and are conjugated by
        every element."""
        group = gq.enumerate_gsp4(q) if name == "GSp4" else gq.named_subgroup(name, q)
        got = [(c.rep, c.elements) for c in gq.conjugacy_classes(group)]
        assert got == _ref_classes(group)

    def test_bound(self):
        with pytest.raises(GroupTooLarge):
            gq.conjugacy_classes(gq.enumerate_gsp4(3))


def _ref_classes(group):
    """(rep, sorted elements) of every class: an orbit BFS over GSpElem
    triple products g x g^{-1}, run from each element not yet reached, in
    the order of ``group.elements``."""
    gens = list(group.generators) or list(group.elements)
    gen_pairs = [(g, g.inverse()) for g in gens]
    seen = set()
    classes = []
    for e in group.elements:
        if e.key() in seen:
            continue
        orbit = {e.key(): e}
        frontier = [e]
        while frontier:
            new = []
            for x in frontier:
                for g, gi in gen_pairs:
                    y = g * x * gi
                    if y.key() not in orbit:
                        orbit[y.key()] = y
                        new.append(y)
            frontier = new
        seen.update(orbit)
        classes.append((e, tuple(sorted(orbit.values(), key=lambda g: g.key()))))
    return classes


def _key_dtype(q):
    """int64 keys where q^16 <= 2^63 (q <= 13), 32-byte voids above."""
    return np.dtype(np.int64) if q <= 13 else np.dtype("V32")


class TestRowKeys:
    @pytest.mark.parametrize("q", [2, 3, 4, 9, 13, 16, 509])
    def test_key_order_is_element_order(self, q):
        """Keys of distinct rows in the entry-tuple order that
        Subgroup.elements is sorted by come out sorted and distinct, at both
        key dtypes, also where an entry reaches the high byte of its uint16
        (255 against 256 at q = 509).  An int64 key is the row read as a
        base-q integer, exactly: at q = 13 the all-12 row keys to 13^16 - 1
        with no overflow."""
        rng = random.Random(q)
        entries = [x for x in (0, 1, 2, 255, 256, q - 1) if x < q]
        entries += [rng.randrange(q) for _ in range(6)]
        tuples = {tuple(rng.choice(entries) for _ in range(16)) for _ in range(300)}
        tuples |= {(x,) + (0,) * 15 for x in entries} | {(q - 1,) * 16}
        tuples = sorted(tuples)
        keys = gq.row_keys(gq._rows(tuples, field_for_q(q)), q)
        assert keys.dtype == _key_dtype(q)
        assert (np.sort(keys) == keys).all()
        assert len(set(keys.tolist())) == len(tuples)
        if q <= 13:
            assert keys.tolist() == [sum(x * q**(15 - c) for c, x in enumerate(e))
                                     for e in tuples]
            assert keys[-1] == q**16 - 1

    @pytest.mark.parametrize("q", [3, 13])
    def test_long_and_short_arrays_get_the_same_keys(self, q):
        """An array of at least _EINSUM_ROWS rows, keyed by einsum, gets the
        keys its rows get one at a time, keyed by ``@``."""
        rows = np.random.default_rng(q).integers(
            0, q, size=(gq._EINSUM_ROWS + 5, 16)).astype(np.int16)
        keys = gq.row_keys(rows, q)
        assert keys.dtype == np.int64
        rows_alone = [gq.row_keys(row, q)[0] for row in rows[::97]]
        assert keys[::97].tolist() == rows_alone

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 13, 16, 509])
    def test_lexsort_order_is_key_order(self, q):
        """The key sort that orders a closure gives the permutation of the
        column lexsort, on shuffled distinct rows in the closure's dtype
        (int32 at q = 509, with entries on both sides of 255/256), at both
        key dtypes, and the sorted keys are in order."""
        rng = random.Random(q)
        spec = field_for_q(q)
        entries = [x for x in (0, 1, 2, 255, 256, q - 1) if x < q]
        tuples = {tuple(rng.choice(entries) if rng.random() < 0.5 else rng.randrange(q)
                        for _ in range(16)) for _ in range(400)}
        if q < 10:
            tuples |= {g.mat.e for g in gq.named_subgroup("B", q).elements}
        tuples = sorted(tuples)
        rng.shuffle(tuples)
        rows = gq._rows(tuples, spec)
        keys = gq.row_keys(rows, q)
        order = gq._key_order(keys, rows)
        assert (order == np.lexsort(rows.T[::-1])).all()
        assert (np.sort(keys) == keys[order]).all()

    def test_positions(self):
        """Subgroup.positions finds rows where Subgroup.elements has them; a
        row outside the group raises."""
        group = gq.named_subgroup("U_S", 3)
        spec = group.spec
        mats = [g.mat.e for g in group.elements]
        found = group.positions(gq._rows(mats[::-1], spec))
        assert found.tolist() == list(range(group.order))[::-1]
        outside = gq.gsp_elem(gq.Mat4.diag(spec, 2, 2, 1, 1))
        assert outside not in group
        pos, inside = group.lookup(gq._rows(mats[:3] + [outside.mat.e], spec))
        assert inside.tolist() == [True, True, True, False]
        assert pos[:3].tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match="not in the group"):
            group.positions(gq._rows(mats[:3] + [outside.mat.e], spec))


def _array_groups(q):
    """Subgroups over F_q from both constructors: a closure and a named
    subgroup (plus GSp(4,2) itself, and B, at q = 2 and 4)."""
    spec = field_for_q(q)
    c = ffield.primitive_unit(spec)
    torus = gq.gsp_elem(gq.Mat4.diag(spec, c, c, 1, 1))
    root = gq.gsp_elem(gq.pos_root_elem(spec, 3, spec.one))
    groups = [gq.subgroup_closure([torus]), gq.named_subgroup("Z_ray", q)]
    if q < 5:
        groups += [gq.subgroup_closure([torus, root]), gq.named_subgroup("B", q)]
    if q == 2:
        groups.append(gq.enumerate_gsp4(2))
    return groups


class TestSubgroupArrays:
    @pytest.mark.parametrize("q", [2, 4, 13, 16, 509])
    def test_rows_sorted_and_match_elements(self, q):
        """rows, keys and mus are in row_keys order, the keys int64 for
        q <= 13 and void above, and .elements holds the same matrices and
        similitude factors, each a validated similitude."""
        for group in _array_groups(q):
            keys = gq.row_keys(group.rows, q)
            assert group.keys.dtype == _key_dtype(q), group
            assert (group.keys == keys).all()
            assert (np.sort(keys) == keys).all(), group
            assert len(set(keys.tolist())) == group.order, group
            assert group.rows.tolist() == [list(g.mat.e) for g in group.elements]
            assert group.mus.tolist() == [g.mu.encoding() for g in group.elements]
            assert [g.key() for g in group.elements] == sorted(g.key() for g in group)
            for g in group.elements[:: max(1, group.order // 50)]:
                assert gq.gsp_elem(g.mat) == g

    def test_membership_of_elements_and_matrices(self):
        group = gq.named_subgroup("R_last", 3)
        spec = group.spec
        g = group.elements[7]
        assert g in group and g.mat in group
        outside = gq.gsp_elem(gq.Mat4.diag(spec, 2, 2, 1, 1))
        assert outside not in group and outside.mat not in group

    def test_subset_and_same_elements_false_cases(self):
        for q in (2, 3):
            r_last = gq.named_subgroup("R_last", q)
            row8 = gq.named_subgroup("Row8", q)
            # Row8 has order q^3 (q - 1), so the two coincide at q = 2 only
            assert row8.is_subset_of(r_last) == (q == 2)
            assert row8.same_elements(r_last) == (q == 2)
            m1, r_kl = gq.named_subgroup("M1", q), gq.named_subgroup("R_klingen", q)
            assert m1.is_subset_of(r_kl)
            assert not m1.same_elements(r_kl) and not r_kl.same_elements(m1)
            # equal orders, different elements
            row5, row6 = gq.named_subgroup("Row5", q), gq.named_subgroup("Row6", q)
            assert row5.order == row6.order
            assert not row5.same_elements(row6)

    def test_element_of_another_field_is_not_a_member(self):
        # the identity of GSp(4, 2) has the entries of the identity of
        # GSp(4, 3), but is no element of it
        ident = gq.gsp_elem(gq.Mat4.identity(field_for_q(2)))
        group = gq.enumerate_gsp4(3)
        assert gq.gsp_elem(gq.Mat4.identity(group.spec)) in group
        assert ident not in group and ident.mat not in group

    def test_subgroups_of_another_field_refused(self):
        small, large = gq.named_subgroup("Z_ray", 2), gq.named_subgroup("Z_ray", 3)
        for a, b in ((small, large), (large, small)):
            with pytest.raises(MixedFields):
                a.is_subset_of(b)
            with pytest.raises(MixedFields):
                a.same_elements(b)

    def test_product_across_fields_refused(self):
        # MixedFields, which the CLI maps to exit 1, not a plain ValueError
        one_2, one_3 = (gq.gsp_elem(gq.Mat4.identity(field_for_q(q))) for q in (2, 3))
        for a, b in ((one_2, one_3), (one_3, one_2)):
            with pytest.raises(MixedFields):
                a * b
            with pytest.raises(MixedFields):
                a.mat * b.mat

    def test_entry_of_another_field_refused(self):
        f3, one_2 = field_for_q(3), field_for_q(2).one
        rows = [[1 if r == c else 0 for c in range(4)] for r in range(4)]
        rows[0][0] = one_2
        with pytest.raises(MixedFields):
            gq.Mat4.from_rows(f3, rows)
        with pytest.raises(MixedFields):
            gq.Mat4.diag(f3, one_2, 1, 1, 1)
