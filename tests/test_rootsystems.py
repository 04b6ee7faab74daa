"""Tests for root-system construction, conversions and count invariants."""

from fractions import Fraction

import pytest

from grlb.rootsystems import UnsupportedRootSystemError, _bc_walk, unipotent_radical
from reference import build_root_system, phi_pu, table_marked, weight_of_root_sum

F = Fraction

SUPPORTED = [("B", n) for n in range(2, 13)] + [("C", n) for n in range(2, 13)] + [
    ("F4", 4),
    ("G2", 2),
]


def orthonormal_roots(type_label, n):
    """Positive roots as vectors over the orthonormal basis L_1..L_n."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            minus = [0] * n
            minus[i], minus[j] = 1, -1
            plus = [0] * n
            plus[i], plus[j] = 1, 1
            roots.append(tuple(minus))
            roots.append(tuple(plus))
        single = [0] * n
        single[i] = 1 if type_label == "B" else 2
        roots.append(tuple(single))
    return roots


def simple_roots_orthonormal(type_label, n):
    """Simple roots as orthonormal-basis vectors."""
    alphas = []
    for m in range(n - 1):
        v = [0] * n
        v[m], v[m + 1] = 1, -1
        alphas.append(v)
    last = [0] * n
    last[n - 1] = 1 if type_label == "B" else 2
    alphas.append(last)
    return alphas


def plate_simple_roots(type_label, n):
    """Bourbaki's simple roots over the epsilon basis, and the scale of its inner product.

    B_n and C_n are Plates II and III, F4 is Plate VIII, and G2 is Plate IX,
    whose inner product is halved so that the short root has squared length 1.
    """
    if type_label == "F4":
        h = F(1, 2)
        return [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h)], 1
    if type_label == "G2":
        return [(1, -1, 0), (-2, 1, 1)], F(1, 2)
    return simple_roots_orthonormal(type_label, n), 1


class TestConstruction:
    def test_g2_roots(self):
        rs = build_root_system("G2", 2)
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
        assert rs.half_lengths == (F(1, 2), F(3, 2))

    def test_b3_count(self):
        assert len(build_root_system("B", 3).positive_roots) == 9

    @pytest.mark.parametrize("type_label,n", [("B", n) for n in range(2, 13)] + [("C", n) for n in range(2, 13)])
    def test_bc_counts(self, type_label, n):
        rs = build_root_system(type_label, n)
        assert len(rs.positive_roots) == n * n

    def test_f4_phi_pu_markings(self):
        rs = build_root_system("F4", 4)
        assert len(rs.positive_roots) == 24
        kept = [r for r in rs.positive_roots if r[1] > 0 or r[2] > 0]
        expected = {
            (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1),
            (1, 1, 1, 0), (0, 1, 2, 0), (0, 1, 1, 1), (1, 1, 2, 0), (1, 1, 1, 1),
            (0, 1, 2, 1), (1, 2, 2, 0), (1, 1, 2, 1), (0, 1, 2, 2), (1, 2, 2, 1),
            (1, 1, 2, 2), (1, 2, 3, 1), (1, 2, 2, 2), (1, 2, 3, 2), (1, 2, 4, 2),
            (1, 3, 4, 2), (2, 3, 4, 2),
        }
        assert set(kept) == expected
        assert len(kept) == 22

    @pytest.mark.parametrize("type_label,n", SUPPORTED)
    def test_simple_roots_present_and_distinct(self, type_label, n):
        rs = build_root_system(type_label, n)
        for m in range(n):
            unit = tuple(1 if p == m else 0 for p in range(n))
            assert unit in rs.positive_roots
        assert len(set(rs.positive_roots)) == len(rs.positive_roots)

    def test_half_length_tables(self):
        assert build_root_system("B", 5).half_lengths == (F(1),) * 4 + (F(1, 2),)
        assert build_root_system("C", 5).half_lengths == (F(1),) * 4 + (F(2),)
        assert build_root_system("F4", 4).half_lengths == (F(1), F(1), F(1, 2), F(1, 2))

    def test_unsupported(self):
        for args in [("A", 3), ("B", 1), ("F4", 3), ("G2", 3), ("D", 4)]:
            with pytest.raises(UnsupportedRootSystemError):
                build_root_system(*args)


class TestOrthonormalCrossCheck:
    @pytest.mark.parametrize("type_label", ["B", "C"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_roots_match_orthonormal_description(self, type_label, n):
        rs = build_root_system(type_label, n)
        alphas = simple_roots_orthonormal(type_label, n)
        converted = set()
        for coeffs in rs.positive_roots:
            vec = [0] * n
            for m, c in enumerate(coeffs):
                for p in range(n):
                    vec[p] += c * alphas[m][p]
            converted.add(tuple(vec))
        assert converted == set(orthonormal_roots(type_label, n))


class TestCountFilters:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_b_marked_last_two(self, n):
        rs = build_root_system("B", n)
        i, j = n - 1, n
        counts = {}
        for r in rs.positive_roots:
            key = (r[i - 1], r[j - 1])
            if key != (0, 0):
                counts[key] = counts.get(key, 0) + 1
        assert counts == {
            (1, 0): n - 1,
            (0, 1): 1,
            (1, 1): n - 1,
            (1, 2): n - 1,
            (2, 2): (n - 1) * (n - 2) // 2,
        }

    @pytest.mark.parametrize("n", range(2, 13))
    def test_c_marked_last_two(self, n):
        rs = build_root_system("C", n)
        i, j = n - 1, n
        counts = {}
        for r in rs.positive_roots:
            key = (r[i - 1], r[j - 1])
            if key != (0, 0):
                counts[key] = counts.get(key, 0) + 1
        assert counts == {
            (1, 0): n - 1,
            (0, 1): 1,
            (1, 1): n - 1,
            (2, 1): n * (n - 1) // 2,
        }

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(3, 13) for k in range(2, n)]
    )
    def test_c_marked_interior(self, n, k):
        rs = build_root_system("C", n)
        counts = {}
        for r in rs.positive_roots:
            key = (r[k - 2], r[k - 1])
            if key != (0, 0):
                counts[key] = counts.get(key, 0) + 1
        expected = {
            (1, 0): k - 1,
            (0, 1): 2 * (n - k),
            (1, 1): 2 * (k - 1) * (n - k),
            (0, 2): 1,
            (1, 2): k - 1,
            (2, 2): k * (k - 1) // 2,
        }
        assert counts == {key: val for key, val in expected.items() if val}


class TestWeights:
    @pytest.mark.parametrize("type_label,n", SUPPORTED)
    def test_positive_root_sum_is_twice_rho(self, type_label, n):
        # rho is the sum of the fundamental weights.
        rs = build_root_system(type_label, n)
        assert weight_of_root_sum(rs, rs.positive_roots) == {m: 2 for m in range(1, n + 1)}

    @pytest.mark.parametrize("type_label,n", SUPPORTED)
    def test_rho_recomputation(self, type_label, n):
        # Converting root by root and adding the coefficients gives the same
        # 2*rho: the conversion is linear, so summing first loses nothing.
        rs = build_root_system(type_label, n)
        per_root = [weight_of_root_sum(rs, [r]) for r in rs.positive_roots]
        assert [sum(w.get(m, 0) for w in per_root) for m in range(1, n + 1)] == [2] * n

    def test_g2_rho(self):
        # rho = 5 alpha_1 + 3 alpha_2 with alpha_1 short, i.e. w_1 + w_2.
        rs = build_root_system("G2", 2)
        assert [sum(column) for column in zip(*rs.positive_roots)] == [10, 6]
        assert weight_of_root_sum(rs, rs.positive_roots) == {1: 2, 2: 2}

    @pytest.mark.parametrize("type_label,n", SUPPORTED)
    def test_cartan_symmetry_under_half_lengths(self, type_label, n):
        # pairing[l][m] * d_l is the symmetric bilinear form on simple roots.
        # Against the plates' epsilon-basis simple roots, d_m = (alpha_m, alpha_m)/2
        # and pairing[l][m] = 2 (alpha_l, alpha_m) / (alpha_l, alpha_l).
        rs = build_root_system(type_label, n)
        simple = [tuple(int(l == m) for l in range(n)) for m in range(n)]
        pairing = [[weight_of_root_sum(rs, [simple[m]]).get(l + 1, 0) for m in range(n)] for l in range(n)]
        alphas, scale = plate_simple_roots(type_label, n)

        def form(x, y):
            return scale * sum(F(p) * q for p, q in zip(x, y))

        for l in range(n):
            assert rs.half_lengths[l] == form(alphas[l], alphas[l]) / 2
            for m in range(n):
                assert pairing[l][m] * rs.half_lengths[l] == pairing[m][l] * rs.half_lengths[m]
                assert pairing[l][m] == 2 * form(alphas[l], alphas[m]) / form(alphas[l], alphas[l])

    def test_b3_alpha2_in_weight_coordinates(self):
        rs = build_root_system("B", 3)
        assert weight_of_root_sum(rs, [(0, 1, 0)]) == {1: -1, 2: 2, 3: -2}

    def test_zero_coefficients_dropped(self):
        # alpha_1 of B_3 pairs to zero with alpha_3^vee, so w_3 is absent.
        rs = build_root_system("B", 3)
        assert weight_of_root_sum(rs, [(1, 0, 0)]) == {1: 2, 2: -1}
        assert weight_of_root_sum(rs, []) == {}


class TestUnipotentRadical:
    """The epsilon-basis walk against the root table, pair by pair."""

    @pytest.mark.parametrize("type_label,n", [(t, n) for t in "BC" for n in range(2, 25)])
    def test_walk_equals_table_for_every_ordered_pair(self, type_label, n):
        rs = build_root_system(type_label, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                roots = phi_pu(rs, i, j)
                marked, two_rho_p = unipotent_radical(type_label, n, i, j)
                assert marked == table_marked(rs, i, j), (i, j)
                assert two_rho_p == weight_of_root_sum(rs, roots), (i, j)
                assert two_rho_p.keys() == {i, j}
                walked, column_sums = _bc_walk(n, type_label == "C", i, j)
                assert walked == marked
                assert column_sums[1 : n + 1] == [sum(c) for c in zip(*roots)], (i, j)
                assert column_sums[0] == column_sums[n + 1] == 0

    @pytest.mark.parametrize("type_label,n", [("F4", 4), ("G2", 2)])
    def test_fixed_tables(self, type_label, n):
        rs = build_root_system(type_label, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    roots = phi_pu(rs, i, j)
                    marked, two_rho_p = unipotent_radical(type_label, n, i, j)
                    assert marked == table_marked(rs, i, j), (i, j)
                    assert two_rho_p == weight_of_root_sum(rs, roots), (i, j)

    def test_validation(self):
        for args in [("B", 3, 2, 2), ("B", 3, 0, 1), ("C", 3, 1, 4), ("G2", 2, 1, 3)]:
            with pytest.raises(ValueError, match="marked indices"):
                unipotent_radical(*args)
        for args in [("A", 3, 1, 2), ("B", 1, 1, 2), ("F4", 3, 1, 2)]:
            with pytest.raises(UnsupportedRootSystemError):
                unipotent_radical(*args)
