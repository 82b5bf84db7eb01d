"""Independent oracles: every answer the benchmark checks is recomputed here
from the textbook definitions in `data.py`, with none of the package's code.

- Root systems: positive roots by closing the simple roots under simple
  reflections in simple-root coordinates; 2rho and its Levi variants; the
  Weyl dimension formula; Weyl group orders as the size of the orbit of rho.
- Coinvariants: the inertia group by closing its generators, I-averaging,
  heights <x, 2rho>, and invariant factors by determinantal divisors.
- SU(2n+1) in ambient coordinates: classes are u = (a_i - a_(2n+2-i))_(i<=n),
  dominant classes are partitions, dim u = sum u_i (2n+2-2i), mu <= lam iff
  every partial sum of lam - mu is >= 0, and W0 acts by signed permutations.
- Chains: PSU3 and SL2xSL2-swap have one dominant class per even dimension.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from data import Datum


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _combine(coeffs, vectors, rank):
    out = [0] * rank
    for c, vec in zip(coeffs, vectors):
        for i, x in enumerate(vec):
            out[i] += c * x
    return tuple(out)


# ---------------------------------------------------------------------------
# Root systems from a Cartan matrix a_ij = <alpha_i^vee, alpha_j>


def positive_roots(cartan):
    """Positive roots in simple-root coordinates, by closing the simple roots
    under the simple reflections s_i(b) = b - <alpha_i^vee, b> alpha_i."""
    return _positive_roots(tuple(tuple(row) for row in cartan))


@functools.lru_cache(maxsize=None)
def _positive_roots(cartan):
    k = len(cartan)
    simple = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for b in frontier:
            for i in range(k):
                pairing = sum(cartan[i][j] * b[j] for j in range(k))
                img = tuple(b[j] - (pairing if j == i else 0) for j in range(k))
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return tuple(sorted(r for r in roots if all(c >= 0 for c in r)))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def weyl_dimension(cartan, labels):
    """dim V(lambda) = prod over positive coroots b of <lambda+rho, b>/<rho, b>,
    with lambda given by its labels <lambda, alpha_i^vee>."""
    num = den = 1
    for b in positive_roots(transpose(cartan)):
        num *= sum(c * (m + 1) for c, m in zip(b, labels))
        den *= sum(b)
    if num % den:
        raise ArithmeticError("Weyl dimension formula gave a non-integer")
    return num // den


def weyl_order(cartan):
    """|W| as the size of the W-orbit of rho, in fundamental-weight labels;
    s_j moves labels m to m - m_j * (column j of the Cartan matrix)."""
    k = len(cartan)
    start = (1,) * k
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for m in frontier:
            for j in range(k):
                img = tuple(m[i] - m[j] * cartan[i][j] for i in range(k))
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return len(seen)


@functools.lru_cache(maxsize=None)
def two_rho(d: Datum, subset=None):
    """Sum of the positive roots as a character vector; with a subset of
    simple indices, only the roots supported on it (2 rho of the Levi)."""
    total = (0,) * d.rank
    for b in positive_roots(d.cartan()):
        if subset is None or all(c == 0 or i in subset for i, c in enumerate(b)):
            total = tuple(x + y for x, y in zip(total, _combine(b, d.simple_roots, d.rank)))
    return total


def height(d: Datum, x):
    """<x, 2 rho>: the height of the class of x, since 2 rho is I-invariant."""
    return dot(x, two_rho(d))


def make_dominant(d: Datum, x):
    """The dominant W-conjugate of a (rational or integral) cocharacter, by
    applying s_i(x) = x - <x, alpha_i> alpha_i^vee while some pairing is < 0."""
    x = tuple(x)
    while True:
        for alpha, coroot in zip(d.simple_roots, d.simple_coroots):
            p = dot(x, alpha)
            if p < 0:
                x = tuple(a - p * c for a, c in zip(x, coroot))
                break
        else:
            return x


def reflect(d: Datum, i, x):
    p = dot(x, d.simple_roots[i])
    return tuple(a - p * c for a, c in zip(x, d.simple_coroots[i]))


# ---------------------------------------------------------------------------
# The inertia action


def _mat_apply(m, v):
    return tuple(dot(row, v) for row in m)


def _mat_mul(a, b):
    cols = transpose(b)
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


@functools.lru_cache(maxsize=None)
def group_matrices(d: Datum):
    """The finite group generated by the lattice maps, by closure."""
    ident = tuple(tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank))
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g, _perm in d.generators:
                p = _mat_mul(g, m)
                if p not in elems:
                    elems.add(p)
                    new.append(p)
        frontier = new
    return tuple(sorted(elems))


def average(d: Datum, x):
    """(1/|I|) sum over gamma of gamma(x), exact."""
    mats = group_matrices(d)
    total = [Fraction(0)] * d.rank
    for m in mats:
        for i, y in enumerate(_mat_apply(m, x)):
            total[i] += y
    return tuple(t / len(mats) for t in total)


@functools.lru_cache(maxsize=None)
def simple_orbits(d: Datum):
    """I-orbits of the simple roots with their type."""
    seen, orbits = set(), []
    for i in range(d.num_simple):
        if i in seen:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for _g, perm in d.generators:
                if perm[j] not in orbit:
                    orbit.add(perm[j])
                    frontier.append(perm[j])
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    cartan = d.cartan()
    kinds = []
    for orbit in orbits:
        off = [cartan[i][j] for i in orbit for j in orbit if i != j]
        kinds.append("orthogonal" if all(x == 0 for x in off) else "adjacent-pair")
    return tuple(orbits), tuple(kinds)


def relative_cartan(d: Datum):
    """<coroot_O, average root_P> with coroot_O the (doubled, for adjacent
    pairs) sum of the orbit's simple coroots."""
    orbits, kinds = simple_orbits(d)
    rows = []
    for orbit, kind in zip(orbits, kinds):
        mult = 2 if kind == "adjacent-pair" else 1
        coroot = _combine([mult] * len(orbit), [d.simple_coroots[i] for i in orbit], d.rank)
        row = []
        for other in orbits:
            avg = sum(Fraction(dot(coroot, d.simple_roots[j])) for j in other) / len(other)
            if avg.denominator != 1:
                raise ArithmeticError("relative Cartan entry is not an integer")
            row.append(int(avg))
        rows.append(tuple(row))
    return tuple(rows)


def relative_weyl_order(d: Datum):
    return weyl_order(relative_cartan(d))


def _determinant(m):
    m = [[Fraction(x) for x in row] for row in m]
    n, det = len(m), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return int(det)


def invariant_factors(rows, ncols):
    """Free rank and torsion factors (> 1) of Z^len(rows) modulo the column
    span, from the gcds of k x k minors (determinantal divisors)."""
    n = len(rows)
    divisors = [1]
    for k in range(1, min(n, ncols) + 1):
        g = 0
        minors = (
            _determinant([[rows[r][c] for c in cs] for r in rs])
            for rs in itertools.combinations(range(n), k)
            for cs in itertools.combinations(range(ncols), k)
        )
        for minor in minors:
            g = math.gcd(g, minor)
            if g == 1:
                break
        if g == 0:
            break
        divisors.append(g)
    rank = len(divisors) - 1
    factors = [divisors[i] // divisors[i - 1] for i in range(1, rank + 1)]
    return n - rank, tuple(f for f in factors if f > 1)


def kottwitz_group(d: Datum):
    """pi_1(G)_I = X_* / (coroots + (1 - gamma) X_*), as (free rank, torsion)."""
    cols = [tuple(c) for c in d.simple_coroots]
    for g, _perm in d.generators:
        for j in range(d.rank):
            cols.append(tuple(int(i == j) - g[i][j] for i in range(d.rank)))
    rows = [tuple(col[i] for col in cols) for i in range(d.rank)]
    return invariant_factors(rows, len(cols))


# ---------------------------------------------------------------------------
# Cells and corr


def rational_solve(columns, target):
    """The unique x with sum x_j columns[j] = target, or None when target is
    outside the span; the columns must be independent."""
    k = len(columns)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(len(target))]
    r = 0
    pivots = []
    for c in range(k):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            raise ArithmeticError("dependent columns")
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(r)
        r += 1
    if any(row[k] != 0 for row in rows[r:]):
        return None
    return tuple(rows[i][k] for i in pivots)


def mv_cell(d: Datum, x_mu, x_lam):
    """(nonempty, dim) of the cell for the classes of x_mu and x_lam, with
    dominance decided on I-averages (all queried data have torsion-free
    coinvariants, where the average determines the class)."""
    dom = make_dominant(d, average(d, x_mu))
    diff = tuple(b - a for a, b in zip(dom, average(d, x_lam)))
    orbits, _kinds = simple_orbits(d)
    cols = [average(d, d.simple_coroots[o[0]]) for o in orbits]
    coeffs = rational_solve(cols, diff)
    if coeffs is None or any(c.denominator != 1 or c < 0 for c in coeffs):
        return False, None
    return True, _half(height(d, x_mu) + height(d, x_lam))


def _half(n):
    if n % 2:
        raise ArithmeticError("cell dimension is not an integer")
    return n // 2


def corr(d: Datum, levi_orbits, x):
    """<average of x, 2 rho - 2 rho_M> for the Levi of the given orbits."""
    orbits, _kinds = simple_orbits(d)
    subset = frozenset(i for o in levi_orbits for i in orbits[o])
    shift = tuple(a - b for a, b in zip(two_rho(d), two_rho(d, subset)))
    value = dot(average(d, x), shift)
    if value.denominator != 1:
        raise ArithmeticError("corr is not an integer")
    return int(value)


# ---------------------------------------------------------------------------
# SU(2n+1) in ambient coordinates


def su_ambient(v):
    """Internal coordinates (coefficients of the simple coroots) of a
    cocharacter of SU(2n+1) to its sum-zero ambient vector a."""
    padded = (0,) + tuple(v) + (0,)
    return tuple(padded[i] - padded[i - 1] for i in range(1, len(padded)))


def su_class(v):
    """u = (a_i - a_(2n+2-i))_(i<=n) of the class of v."""
    a = su_ambient(v)
    n = len(a) // 2
    return tuple(a[i] - a[len(a) - 1 - i] for i in range(n))


def su_weights(n):
    return tuple(2 * n + 2 - 2 * i for i in range(1, n + 1))


def su_dim(u):
    return dot(u, su_weights(len(u)))


def su_leq(mu, lam):
    """mu <= lam iff every partial sum of lam - mu is >= 0."""
    return all(s >= 0 for s in itertools.accumulate(b - a for a, b in zip(mu, lam)))


def su_dominant(u):
    """The dominant signed permutation of u."""
    return tuple(sorted((abs(x) for x in u), reverse=True))


def su_mv_cell(x_mu, x_lam):
    mu, lam = su_class(x_mu), su_class(x_lam)
    if not su_leq(su_dominant(mu), lam):
        return False, None
    return True, _half(su_dim(mu) + su_dim(lam))


def su_partitions(n, bound):
    """Dominant classes of SU(2n+1) with dim <= 2 * bound."""
    weights = su_weights(n)
    out = []

    def extend(prefix, cap, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        w = weights[len(prefix)]
        for x in range(cap + 1):
            if used + x * w > 2 * bound:
                break
            extend(prefix + [x], x, used + x * w)

    extend([], 2 * bound, 0)
    return sorted(out)


def fundamental_partitions(n):
    """omega_k = (1^k 0^(n-k)); every partition is sum c_k omega_k with
    c_k = u_k - u_(k+1)."""
    return [tuple(int(i < k) for i in range(n)) for k in range(1, n + 1)]


def hasse(nodes, leq):
    """Covering pairs of the order leq on nodes, by brute force."""
    strict = {(a, b) for a in nodes for b in nodes if a != b and leq(a, b)}
    return {
        (a, b) for a, b in strict
        if not any((a, m) in strict and (m, b) in strict for m in nodes)
    }


def su_poset(n, bound):
    """(dims by class, Hasse edges) of the SU(2n+1) Schubert poset."""
    nodes = su_partitions(n, bound)
    return {u: su_dim(u) for u in nodes}, hasse(nodes, su_leq)


def su_dominant_image(d: Datum, bound):
    """Classes of the dominant absolute coweights of height <= 2 * bound.

    Dominant cocharacters of a simply connected datum have nonnegative
    coroot coordinates (the inverse Cartan matrix is positive) and height
    2 * sum v, so scanning v >= 0 with sum v <= bound finds them all."""
    out = set()
    for v in itertools.product(range(bound + 1), repeat=d.rank):
        if sum(v) > bound or any(dot(v, a) < 0 for a in d.simple_roots):
            continue
        if height(d, v) <= 2 * bound:
            out.add(su_class(v))
    return out


def chain_poset(bound):
    """Strata k = 0..bound of dims 2k, each covering the one below."""
    return {k: 2 * k for k in range(bound + 1)}, {(k - 1, k) for k in range(1, bound + 1)}
