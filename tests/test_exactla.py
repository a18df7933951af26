"""Exact linear algebra: row reduction, kernels, Smith form, group
presentations, and the one exhaustive-or-sampled coefficient search."""

from fractions import Fraction
from random import Random

import numpy as np
import pytest

from gpktheory import exactla
from gpktheory.exactla import (
    EXHAUSTIVE_CAP,
    AbelianGroupDescription,
    CertificateError,
    FieldSpec,
    MatZ,
    coeff_vectors,
    group_from_presentation,
    invert,
    kernel,
    rank_of,
    rank_stack,
    rref,
    rref_stack_fp,
    sampled_coeff_vectors,
    smith_normal_form,
    solve_matrix,
)

from builders import all_coeff_vectors, random_matrix

GF5 = FieldSpec(5)
GF7 = FieldSpec(7)
GF3 = FieldSpec(3)


def test_rank_kernel_golden():
    # [[1,2],[2,4]] over GF(5) has rank 1, kernel spanned by (3,1)
    m = GF5.array([[1, 2], [2, 4]])
    ker = kernel(GF5, m)
    assert rank_of(GF5, m) == 1 == m.shape[1] - len(ker)
    assert ker.shape == (1, 2)
    assert list(ker[0]) == [3, 1]


def test_solve_golden():
    # 2x=1, 3y=1 over GF(7): x=4, y=5
    a = GF7.array([[2, 0], [0, 3]])
    x = solve_matrix(GF7, a, GF7.array([[1], [1]]))
    assert x is not None
    assert list(x[:, 0]) == [4, 5]


def test_solve_inconsistent():
    a = GF5.array([[1, 1], [2, 2]])
    assert solve_matrix(GF5, a, GF5.array([[1], [3]])) is None
    # but b in the column space works
    x = solve_matrix(GF5, a, GF5.array([[1], [2]]))
    assert x is not None
    assert (np.dot(a, x[:, 0]) % 5 == np.array([1, 2])).all()


def test_rref_canonical_and_idempotent():
    rng = Random(0)
    for _ in range(40):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        a = random_matrix(GF5, rng, (nr, nc))
        red, piv = rref(GF5, a)
        red2, piv2 = rref(GF5, red)
        assert piv == piv2
        assert (red == red2).all()
        # pivot columns are standard basis vectors
        for i, c in enumerate(piv):
            col = red[:, c]
            assert col[i] == 1 and (np.delete(col, i) == 0).all()


def _rref_outer_loop(a, p):
    """`_rref_fp` as it was written with a masked np.outer update on every
    row: the reference for its leaner pivot step."""
    a = a.astype(np.int64) % p
    nrows, ncols = a.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_rref_matches_the_outer_product_loop(p):
    """Row for row and pivot for pivot on seeded tall, wide, low-rank,
    all-zero and full-rank matrices."""
    f = FieldSpec(p)
    rng = Random(f"rref/{p}")
    cases = [f.zeros((4, 6)), f.zeros((1, 1)), f.eye(5), (p - 1) * f.eye(4)]
    for shape in [(9, 3), (3, 9), (6, 6), (12, 7), (1, 8)]:
        cases += [random_matrix(f, rng, shape) for _ in range(4)]
        low = f.matmul(random_matrix(f, rng, (shape[0], 2)), random_matrix(f, rng, (2, shape[1])))
        cases.append(low)
    while rank_of(f, cases[-1]) < 6:
        cases.append(random_matrix(f, rng, (6, 6)))  # until one has full rank
    for a in cases:
        rows, pivots = exactla._rref_fp(a, p)
        want_rows, want_pivots = _rref_outer_loop(a, p)
        assert pivots == want_pivots
        assert rows.dtype == want_rows.dtype and (rows == want_rows).all()


def test_row_space_key_ignores_row_operations():
    rng = Random(1)
    for _ in range(25):
        a = random_matrix(GF3, rng, (3, 4))
        b = a[::-1].copy()
        b[0] = (b[0] + 2 * b[1]) % 3
        red, _ = rref_stack_fp(np.stack([a, b]), 3)
        assert red[0].tobytes() == red[1].tobytes()


def _stack_cases(rng, p):
    """Seeded stacks with zero-row, zero-column, all-zero, full-rank and
    repeated-row members alongside random ones."""
    f = FieldSpec(p)
    for shape in [(0, 3), (3, 0), (1, 1), (2, 5), (4, 4), (5, 3)]:
        n = 12
        stack = np.stack([random_matrix(f, rng, shape) for _ in range(n)])
        r, c = shape
        if r and c:
            stack[0] = 0
            stack[1, 0] = 0  # a zero row
            stack[2, :, 0] = 0  # a zero column
            stack[3, -1] = stack[3, 0]  # a repeated row
            stack[4, -1] = (2 * stack[4, 0]) % p
            k = min(r, c)
            stack[5] = 0
            stack[5, range(k), range(k)] = rng.randrange(1, p)  # full rank
        yield stack


def test_rref_stack_matches_rref():
    rng = Random(8)
    for p in (2, 3, 5, 7, 65521):
        f = FieldSpec(p)
        for stack in _stack_cases(rng, p):
            red, ranks = rref_stack_fp(stack, p)
            assert red.shape == stack.shape
            for part in (stack, stack[:1]):
                assert (rank_stack(f, part) == ranks[: len(part)]).all()
            for k in range(len(stack)):
                rows, pivots = rref(f, stack[k])
                assert ranks[k] == len(pivots) == rank_of(f, stack[k])
                assert (red[k, : ranks[k]] == rows).all()
                assert (red[k, ranks[k]:] == 0).all()


def test_largest_accepted_prime_multiplies_exactly():
    f = FieldSpec(65521)
    a = f.array([[65520] * 3] * 3)  # all entries -1
    assert (f.matmul(a, a) == 3).all()


@pytest.mark.parametrize("p", [65537, 2**31 - 1])
def test_primes_above_the_exact_range_are_rejected(p):
    with pytest.raises(ValueError, match="65521"):
        FieldSpec(p)


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_non_primes_are_rejected(p):
    with pytest.raises(ValueError, match="must be a prime.*finite prime field"):
        FieldSpec(p)


def test_kernel_annihilates_and_dimensions_add():
    rng = Random(2)
    for _ in range(40):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        a = random_matrix(GF7, rng, (nr, nc))
        r = rank_of(GF7, a)
        k = kernel(GF7, a)
        assert r + k.shape[0] == nc
        if k.shape[0]:
            assert (np.dot(a, k.T) % 7 == 0).all()


def test_invert_and_solve_matrix():
    rng = Random(3)
    found = 0
    for _ in range(60):
        a = random_matrix(GF5, rng, (4, 4))
        inv = invert(GF5, a)
        if inv is None:
            assert rank_of(GF5, a) < 4
            continue
        found += 1
        assert (np.dot(a, inv) % 5 == np.eye(4, dtype=np.int64)).all()
        b = random_matrix(GF5, rng, (4, 2))
        x = solve_matrix(GF5, a, b)
        assert (np.dot(a, x) % 5 == b).all()
    assert found > 10


def test_smith_golden_diag_2_3():
    u, s, v = smith_normal_form(MatZ.make([[2, 0], [0, 3]]))
    assert [s.rows[0][0], s.rows[1][1]] == [1, 6]
    assert s.rows[0][1] == 0 and s.rows[1][0] == 0


def test_smith_transforms_multiply_back():
    rng = Random(4)
    for _ in range(50):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        m = MatZ.make([[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)])
        u, s, v = smith_normal_form(m)
        um = np.array(u.to_lists(), dtype=object)
        mm = np.array(m.to_lists(), dtype=object)
        vm = np.array(v.to_lists(), dtype=object)
        sm = np.array(s.to_lists(), dtype=object)
        assert (np.dot(np.dot(um, mm), vm) == sm).all()
        diag = [s.rows[i][i] for i in range(min(nr, nc))]
        for d0, d1 in zip(diag, diag[1:]):
            assert d0 >= 0 and d1 >= 0
            if d1:
                assert d0 and d1 % d0 == 0


def test_smith_certificate_raises(monkeypatch):
    m = MatZ.make([[2, 0], [0, 3]])
    with monkeypatch.context() as mp:
        mp.setattr(exactla, "_det_sign_unimodular", lambda u: 2)
        with pytest.raises(CertificateError, match="not unimodular"):
            smith_normal_form(m)
    real = exactla._matz_mul
    with monkeypatch.context() as mp:
        mp.setattr(exactla, "_matz_mul", lambda a, b: [[x + 1 for x in r] for r in real(a, b)])
        with pytest.raises(CertificateError, match="factorization mismatch"):
            smith_normal_form(m)


def _det_fraction(rows):
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def test_group_from_presentation_golden():
    g = group_from_presentation(["a", "b"], [[2, 0], [0, 3]])
    assert g.free_rank == 0
    assert g.invariant_factors == (6,)
    assert str(g) == "Z/6"

    free = group_from_presentation(["x", "y"], [])
    assert free.free_rank == 2 and not free.invariant_factors
    assert str(free) == "Z^2"

    trivial = group_from_presentation(["t"], [[1]])
    assert trivial.is_trivial
    assert str(trivial) == "0"

    zmod2 = group_from_presentation(["g"], [[2], [0], [-2]])
    assert zmod2.same_group(AbelianGroupDescription(0, (2,), ("g",)))


def test_group_from_presentation_drops_zero_and_repeated_rows(monkeypatch):
    """Zero rows and repeats change no quotient: the group is the reduced
    presentation's, and the Smith form only sees the first copy of each
    nonzero row, in order."""
    gens = ["a", "b", "c"]
    reduced = [[2, -2, 0], [0, 3, 3], [1, 1, 1]]
    noisy = [[0, 0, 0], [2, -2, 0], [0, 3, 3], [0, 0, 0], [2, -2, 0],
             [1, 1, 1], [0, 3, 3], [0, 0, 0]]
    want = group_from_presentation(gens, reduced)
    seen = []
    snf = exactla.smith_normal_form
    monkeypatch.setattr(exactla, "smith_normal_form", lambda m: seen.append(m.rows) or snf(m))
    got = group_from_presentation(gens, noisy)
    assert (got.free_rank, got.invariant_factors) == (want.free_rank, want.invariant_factors)
    assert seen == [tuple(map(tuple, reduced))]
    zero = group_from_presentation(gens, [[0, 0, 0]] * 4)
    assert (zero.free_rank, zero.invariant_factors) == (3, ())


def test_group_order_matches_determinant():
    # for a full-rank square relation matrix the group is finite of order |det|
    rng = Random(5)
    done = 0
    while done < 20:
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        det = _det_fraction(rows)
        if det == 0 or abs(det) > 512:
            continue
        g = group_from_presentation([f"g{i}" for i in range(n)], rows)
        assert g.free_rank == 0
        order = 1
        for d in g.invariant_factors:
            order *= d
        assert order == abs(det)
        done += 1


def test_group_order_matches_coset_count():
    # independent brute force: cosets of the row lattice inside (Z/det)^n
    rng = Random(6)
    done = 0
    while done < 12:
        n = rng.randrange(1, 3)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        det = abs(_det_fraction(rows))
        if det == 0 or det > 30:
            continue
        d = int(det)
        # subgroup of (Z/d)^n generated by the rows; quotient order = d^n / |subgroup|
        seen = {tuple([0] * n)}
        frontier = [tuple([0] * n)]
        gens = [tuple(x % d for x in r) for r in rows]
        while frontier:
            cur = frontier.pop()
            for gvec in gens:
                nxt = tuple((c + x) % d for c, x in zip(cur, gvec))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        quotient_order = d**n // len(seen)
        g = group_from_presentation([f"g{i}" for i in range(n)], rows)
        order = 1
        for f in g.invariant_factors:
            order *= f
        assert order == quotient_order
        done += 1


def test_free_rank_matches_rational_rank():
    # entries are at most 5 in absolute value and there are at most 3 rows,
    # so by Hadamard's bound every minor is at most (5 * 3**0.5)**3 < 650 <
    # 65521 in absolute value: a minor vanishes mod 65521 exactly when it
    # vanishes, and the rank over GF(65521) is the rational rank
    big = FieldSpec(65521)
    rng = Random(7)
    for _ in range(20):
        nr = rng.randrange(1, 4)
        nc = rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(nc)] for _ in range(nr)]
        g = group_from_presentation([f"g{i}" for i in range(nc)], rows)
        r = rank_of(big, big.array(rows))
        assert g.free_rank == nc - r


# ---------------------------------------------------------------------------
# coeff_vectors: the one exhaustive-or-sampled coefficient search


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_coeff_vectors_enumerate_every_vector_and_every_line(p):
    f = FieldSpec(p)
    n = 0
    while p**n <= EXHAUSTIVE_CAP:
        every = list(all_coeff_vectors(p, n))
        # a line's representative is the first of its nonzero multiples
        position = {tuple(v): i for i, v in enumerate(every)}
        firsts = [
            v for i, v in enumerate(every)
            if any(v) and all(position[tuple(c * x % p for x in v)] >= i for c in range(1, p))
        ]
        lines, exhaustive = coeff_vectors(f, n, seed=3, tries=5)
        assert exhaustive and lines.dtype == np.int64 and lines.shape == (len(firsts), n)
        assert lines.tolist() == firsts
        assert all(v[max(i for i, c in enumerate(v) if c)] == 1 for v in firsts)
        n += 1
    vecs, exhaustive = coeff_vectors(f, n)
    assert not exhaustive
    assert len(list(vecs)) == n  # the unit vectors, no draws


def test_coeff_vectors_at_n_zero():
    assert coeff_vectors(GF5, 0)[0].tolist() == []
    assert coeff_vectors(GF5, 0)[1]


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_coeff_vectors_list_the_one_line_at_every_field(p):
    """F^1 is one line at every prime: its unit vector is an exhaustive
    search, with no draws, whatever the seed and tries."""
    vecs, exhaustive = coeff_vectors(FieldSpec(p), 1, seed=7, tries=128)
    assert exhaustive and vecs.dtype == np.int64 and vecs.tolist() == [[1]]


def _old_sampled_vectors(f, n, seed, tries):
    """The K0 harvest's sampled classes as written before the shared helper."""
    eye = np.eye(n, dtype=np.int64)
    for i in range(n):
        yield list(eye[i])
    rng = Random(seed)
    for _ in range(tries):
        vec = [f.random_scalar(rng) for _ in range(n)]
        if any(c != 0 for c in vec):
            yield vec


@pytest.mark.parametrize("p,n", [(2, 13), (3, 8), (5, 6), (7, 5), (65521, 1), (2, 1)])
def test_sampled_branch_matches_the_old_generators(p, n):
    f = FieldSpec(p)
    dropped = 0
    for seed in range(6):
        for tries in (0, 8, 128):
            vecs = [list(v) for v in sampled_coeff_vectors(f, n, seed, tries)]
            assert vecs == [list(v) for v in _old_sampled_vectors(f, n, seed, tries)]
            if n > 1:  # F^1 is one line, which coeff_vectors lists exhaustively
                got, exhaustive = coeff_vectors(f, n, seed=seed, tries=tries)
                assert not exhaustive and [list(v) for v in got] == vecs
            dropped += n + tries - len(vecs)
    if (p, n) == (2, 1):
        assert dropped  # zero draws occur and are dropped


def _random_matrix(f, rng, rows, cols, rank):
    """A rows x cols matrix of rank at most `rank`, so that kernels and
    inconsistent right-hand sides both occur."""
    left = f.zeros((rows, rank))
    right = f.zeros((rank, cols))
    for m in (left, right):
        for idx in np.ndindex(m.shape):
            m[idx] = f.random_scalar(rng)
    return f.matmul(left, right) if rank else f.zeros((rows, cols))


def _identical(x, y):
    """Equal dtype, shape and entries, the entries' types included."""
    if x is None or y is None:
        return x is None and y is None
    return (x.dtype == y.dtype and x.shape == y.shape
            and [(type(u), u) for u in x.reshape(-1)] == [(type(v), v) for v in y.reshape(-1)])


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_vectorized_fills_match_the_loops(p):
    """kernel and LinearSolver.solve give the arrays of the loop references
    on random low-rank matrices, empty shapes included."""
    from builders import reference_kernel, reference_solve

    f = FieldSpec(p)
    rng = Random(f"fills/{p}")
    outcomes = set()
    for _ in range(300):
        rows, cols = rng.randrange(7), rng.randrange(7)
        a = _random_matrix(f, rng, rows, cols, rng.randrange(min(rows, cols) + 1))
        ker = kernel(f, a)
        assert _identical(ker, reference_kernel(f, a))
        solver = exactla.LinearSolver(f, a)
        x = f.zeros((cols,))
        for idx in range(cols):
            x[idx] = f.random_scalar(rng)
        b_random = f.zeros((rows,))
        for idx in range(rows):
            b_random[idx] = f.random_scalar(rng)
        b_image = f.matmul(a, x) if rows and cols else f.zeros((rows,))
        for b in (b_image, b_random):
            got = solver.solve(b)
            assert _identical(got, reference_solve(solver, b))
            outcomes.add((got is None, len(ker) > 0))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}
