import itertools
import random

import pytest

import point_reference as points
from transverse import config, gf, linalg, poly, projgeom as pg


F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F5 = gf.field_create(5)
F9 = gf.field_create(3, 2)
F13 = gf.field_create(13)


class TestPoints:
    def test_normalization(self):
        P = pg.ProjectivePoint(F5, [2, 4, 0])
        assert P.coords == (1, 2, 0)
        Q = pg.ProjectivePoint(F5, [0, 3, 3])
        assert Q.coords == (0, 1, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            pg.ProjectivePoint(F5, [0, 0, 0])

    def test_counts(self):
        assert sum(1 for _ in pg.enumerate_points(2, F2)) == 7
        assert sum(1 for _ in pg.enumerate_points(1, F4)) == 5
        pts = list(pg.enumerate_points(3, F3))
        assert len(pts) == 40
        assert len(set(pts)) == 40

    def test_scaled_tuples_collapse(self):
        seen = set()
        for v in range(1, 3 ** 3):
            digits = (v % 3, (v // 3) % 3, (v // 9) % 3)
            seen.add(pg.ProjectivePoint(F3, digits))
        assert len(seen) == 13

    def test_enumeration_is_deterministic(self):
        a = [P.coords for P in pg.enumerate_points(2, F5)]
        b = [P.coords for P in pg.enumerate_points(2, F5)]
        assert a == b
        assert a[0] == (1, 0, 0)

    def test_enumeration_charges_each_point_it_yields(self):
        # P^2(F_3) has 13 points; the cap admits the first 10 of them
        with config.caps_scope(config.Caps(max_enum=10)):
            points = pg.enumerate_point_codes(2, F3)
            assert len(list(itertools.islice(points, 10))) == 10
            with pytest.raises(config.CapExceededError):
                next(points)


class TestSubspaces:
    def test_rref_canonicalization(self):
        H = pg.subspace_from_rows(F5, [(0, 1, 0), (1, 0, 0)])
        assert H.basis == ((1, 0, 0), (0, 1, 0))

    def test_dependent_rows_collapse(self):
        H = pg.subspace_from_rows(F5, [(1, 1, 0), (2, 2, 0)])
        assert H.basis == ((1, 1, 0),)
        assert H.dim == 0

    def test_zero_span_rejected(self):
        with pytest.raises(ValueError):
            pg.subspace_from_rows(F5, [(0, 0, 0)])

    def test_span_membership_preserved(self):
        rng = random.Random(23)
        for _ in range(20):
            rows = [
                tuple(rng.randrange(3) for _ in range(4)),
                tuple(rng.randrange(3) for _ in range(4)),
            ]
            try:
                H = pg.subspace_from_rows(F3, rows)
            except ValueError:
                continue
            for _ in range(5):
                a, b = rng.randrange(3), rng.randrange(3)
                comb = tuple(
                    F3.add(F3.mul(a, x), F3.mul(b, y)) for x, y in zip(*rows)
                )
                if not any(comb):
                    continue
                P = pg.ProjectivePoint(F3, comb)
                assert points.subspace_contains(H, P)

    def test_contains_own_rows(self):
        H = pg.subspace_from_rows(F5, [(1, 0, 2, 3), (0, 1, 1, 1)])
        for row in H.basis:
            assert points.subspace_contains(H, pg.ProjectivePoint(F5, row))

    def test_contains_negative_case(self):
        H = pg.subspace_from_rows(F5, [(1, 0, 0, 0), (0, 1, 0, 0)])
        assert not points.subspace_contains(H, pg.ProjectivePoint(F5, (0, 0, 1, 0)))

    def test_contains_over_extension_matches_enumeration(self):
        H = pg.subspace_from_rows(F3, [(1, 0, 1), (0, 1, 2)])
        on_h = {P.coords for P in points.subspace_points(H, F9)}
        for P in pg.enumerate_points(2, F9):
            assert points.subspace_contains(H, P) == (P.coords in on_h)

    def test_contains_tower_mismatch(self):
        F8 = gf.field_create(2, 3)
        H = pg.subspace_from_rows(F4, [(1, 0, 0)])
        with pytest.raises(ValueError):
            points.subspace_contains(H, pg.ProjectivePoint(F8, (1, 0, 0)))


class TestSuperspaces:
    def test_lines_through_point_p3_q2(self):
        P = pg.point_subspace(pg.ProjectivePoint(F2, (1, 0, 0, 0)))
        lines = list(pg.enumerate_superspaces(P, 1))
        assert len(lines) == 7  # 1 + 2 + 4

    def test_pencil_size_p2(self):
        P = pg.point_subspace(pg.ProjectivePoint(F5, (1, 2, 3)))
        lines = list(pg.enumerate_superspaces(P, 1))
        assert len(lines) == 6
        assert len(set(lines)) == 6

    def test_planes_through_line_p3_q3(self):
        L = pg.subspace_from_rows(F3, [(1, 0, 0, 1), (0, 1, 2, 0)])
        planes = list(pg.enumerate_superspaces(L, 2))
        assert len(planes) == 4
        for E in planes:
            assert pg.subspace_le(L, E)
            assert E.dim == 2

    def test_count_formula_sweep(self):
        for q, F in ((2, F2), (3, F3), (5, F5)):
            for n in range(2, 5):
                for r in range(1, n + 1):
                    rows = [
                        tuple(1 if j == i else 0 for j in range(n + 1))
                        for i in range(r)
                    ]
                    H = pg.subspace_from_rows(F, rows)
                    got = sum(1 for _ in pg.enumerate_superspaces(H, r))
                    assert got == sum(q**i for i in range(n - r + 1))

    @pytest.mark.parametrize("F", [F2, F3, F4, F5, F9], ids=str)
    def test_direct_bases_match_rref(self, F):
        # every superspace of H, for each H of dimension 0 to n - 2 in P^2 to
        # P^4 (every H where there are at most 150, else 40 random ones),
        # against subspace_from_rows on H's rows and the coset vector that
        # enumerate_superspaces documents
        rng = random.Random(f"superspaces/{F.order}")
        compared = 0
        for n in range(2, 5):
            for h in range(n - 1):
                pool = list(itertools.islice(self._rref_bases(F, n, h, None), 151))
                if len(pool) > 150:
                    pool = list(itertools.islice(self._rref_bases(F, n, h, rng), 40))
                for basis in pool:
                    H = pg.subspace_from_rows(F, basis)
                    assert H.basis == basis
                    pivots = [next(i for i, c in enumerate(row) if c) for row in basis]
                    free = [j for j in range(n + 1) if j not in pivots]
                    got = list(pg.enumerate_superspaces(H, h + 1))
                    want = []
                    for rep in pg.enumerate_point_codes(len(free) - 1, F):
                        vec = [0] * (n + 1)
                        for j, c in zip(free, rep):
                            vec[j] = c
                        want.append(pg.subspace_from_rows(F, list(basis) + [vec]))
                    assert [E.basis for E in got] == [E.basis for E in want]
                    assert all(type(c) is int for E in got for row in E.basis for c in row)
                    compared += len(got)
        assert compared > 1_000

    @staticmethod
    def _rref_bases(F, n, h, rng):
        """RREF bases of h-planes of P^n(F): every one, by pivot columns and
        then entries, or with an rng, random ones without end."""
        if rng is None:
            shapes = itertools.combinations(range(n + 1), h + 1)
        else:
            shapes = iter(lambda: sorted(rng.sample(range(n + 1), h + 1)), None)
        for pivots in shapes:
            slots = [(i, j) for i, p in enumerate(pivots)
                     for j in range(p + 1, n + 1) if j not in pivots]
            if rng is None:
                fills = itertools.product(range(F.order), repeat=len(slots))
            else:
                fills = [[rng.randrange(F.order) for _ in slots]]
            for fill in fills:
                rows = [[int(j == p) for j in range(n + 1)] for p in pivots]
                for (i, j), c in zip(slots, fill):
                    rows[i][j] = c
                yield tuple(map(tuple, rows))

    def test_wrong_target_dim_rejected(self):
        P = pg.point_subspace(pg.ProjectivePoint(F5, (1, 0, 0)))
        with pytest.raises(ValueError):
            pg.enumerate_superspaces(P, 2)


class TestLines:
    def test_line_counts(self):
        for q, F in ((2, F2), (3, F3), (5, F5)):
            lines = list(pg.all_lines(3, F))
            assert len(lines) == (q**2 + 1) * (q**2 + q + 1)
            assert len(set(lines)) == len(lines)
            assert pg.count_lines(3, F) == len(lines)

    def test_each_line_has_q_plus_one_points(self):
        for L in pg.all_lines(2, F3):
            assert sum(1 for _ in points.subspace_points(L)) == 4

    @pytest.mark.parametrize("field, n", [
        (F2, 2), (F2, 3), (F2, 4), (F3, 2), (F3, 3), (F3, 4),
        (F4, 2), (F4, 3), (F5, 2), (F5, 3), (F9, 2),
    ], ids=str)
    def test_matches_the_seen_set_generator(self, field, n):
        # reference: every pencil member not seen before, in pencil order
        def seen_set_lines():
            seen = set()
            for P in pg.enumerate_points(n, field):
                for L in pg.enumerate_superspaces(pg.point_subspace(P), 1):
                    if L.basis not in seen:
                        seen.add(L.basis)
                        yield L

        assert list(pg.all_lines(n, field)) == list(seen_set_lines())


class TestDual:
    def test_hyperplane_to_point(self):
        H = pg.subspace_from_rows(
            F3, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        )  # {x0 = 0}
        D = pg.dual(H)
        assert D.basis == ((1, 0, 0, 0),)

    def test_involution_random(self):
        rng = random.Random(31)
        for _ in range(100):
            k = rng.randrange(1, 5)
            rows = [
                tuple(rng.randrange(3) for _ in range(5)) for _ in range(k)
            ]
            try:
                H = pg.subspace_from_rows(F3, rows)
            except ValueError:
                continue
            if H.dim == 4:
                continue  # whole space has empty dual
            assert pg.dual(pg.dual(H)) == H
            assert pg.dual(H).dim == 4 - H.dim - 1

    def test_dual_reverses_inclusion(self):
        rng = random.Random(37)
        for _ in range(50):
            rows = [tuple(rng.randrange(3) for _ in range(5)) for _ in range(2)]
            try:
                A = pg.subspace_from_rows(F3, rows)
            except ValueError:
                continue
            extra = tuple(rng.randrange(3) for _ in range(5))
            B = pg.subspace_from_rows(F3, list(rows) + [extra])
            if B.dim == 4 or A.dim == 4:
                continue
            assert pg.subspace_le(A, B)
            assert pg.subspace_le(pg.dual(B), pg.dual(A))

    def test_whole_space_dual_rejected(self):
        H = pg.subspace_from_rows(
            F3, [tuple(1 if j == i else 0 for j in range(3)) for i in range(3)]
        )
        with pytest.raises(ValueError):
            pg.dual(H)


class TestHyperplanes:
    @pytest.mark.parametrize("field", [F2, F3, F5, F4, F9, F13], ids=repr)
    def test_direct_basis_matches_kernel(self, field):
        # reference: the kernel of each normalized dual point, brought to RREF
        for n in range(1, 5):
            ref = [
                pg.subspace_from_rows(field, linalg.kernel(field, [list(w)], n + 1))
                for w in pg.enumerate_point_codes(n, field)
            ]
            assert list(pg.all_hyperplanes(n, field)) == ref, n
            # any nonzero multiple of w names the same hyperplane
            c = field.order - 1
            for w, H in zip(pg.enumerate_point_codes(n, field), ref):
                assert pg.hyperplane(field, [field.mul(c, x) for x in w]) == H


def parse_rows(field, text):
    return [
        [poly.parse_element(field, c) for c in row.split(",")]
        for row in text.split(";")
    ]


class TestText:
    def test_subspace_round_trip(self):
        for field, rows in (
            (F5, [(1, 0, 0, 2), (0, 1, 0, 1)]),
            (F9, [(1, 0, F9.encode([1, 2]))]),
            (F9, [(0, 1, 2, F9.encode([0, 1])), (1, 0, F9.encode([2, 2]), 0)]),
        ):
            H = pg.subspace_from_rows(field, rows)
            text = pg.format_subspace(H)
            assert pg.subspace_from_rows(field, parse_rows(field, text)) == H

    def test_point_round_trip(self):
        for field in (F5, F9):
            for P in pg.enumerate_points(2, field):
                (coords,) = parse_rows(field, pg.format_point(P))
                assert pg.ProjectivePoint(field, coords) == P

    def test_format_subspace(self):
        H = pg.subspace_from_rows(F5, [(1, 0, 0, 2), (0, 1, 0, 1)])
        assert pg.format_subspace(H) == "1,0,0,2; 0,1,0,1"

    def test_format_extension_elements(self):
        H = pg.subspace_from_rows(F9, [(1, 0, F9.encode([1, 2]))])
        assert pg.format_subspace(H) == "1,0,2*t+1"

    def test_format_point(self):
        assert pg.format_point(pg.ProjectivePoint(F5, (2, 4, 0))) == "1,2,0"


class TestSubspacePoints:
    def test_line_points_count_over_extension(self):
        L = pg.subspace_from_rows(F3, [(1, 0, 2), (0, 1, 1)])
        assert sum(1 for _ in points.subspace_points(L)) == 4
        ext_pts = list(points.subspace_points(L, F9))
        assert len(ext_pts) == 10
        assert len(set(ext_pts)) == 10
        for P in ext_pts:
            assert points.subspace_contains(L, P)
