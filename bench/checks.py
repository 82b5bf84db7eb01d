"""Checkers: compare one program answer with the oracles.

Each checker takes the program's answer as the benchmark received it (a
parsed CLI JSON document, or a plain value from the library session) and
returns None when it is right, or a one-line reason when it is wrong.
Labels of coinvariant classes are in the program's own Smith-normal-form
basis, so posets are compared up to the unique linear relabelling that the
oracle's generators force, never against stored output.
"""

from __future__ import annotations

import itertools

import oracles as o
from data import su_half_rank


def parse_label(text):
    """'1,0' or '1,0;1' -> ((1, 0), (1,))."""
    free, _sep, tors = text.partition(";")
    as_ints = lambda s: tuple(int(x) for x in s.split(",") if x != "")  # noqa: E731
    return as_ints(free), as_ints(tors)


def _poset_parts(result):
    nodes = {n["label"]: (n["dim"], n["component"]) for n in result["nodes"]}
    edges = [(e["lower"], e["upper"]) for e in result["edges"]]
    return nodes, edges


def _common_checks(result):
    nodes, edges = _poset_parts(result)
    if len(nodes) != len(result["nodes"]):
        return "duplicate stratum labels"
    if len(set(edges)) != len(edges):
        return "duplicate Hasse edges"
    for lo, up in edges:
        if lo not in nodes or up not in nodes:
            return f"edge {lo}->{up} leaves the strata"
    return None


def check_poset_properties(result, bound):
    """Properties every Schubert poset has: dims in [0, 2*bound] with one
    stratum of dim 0, dims strictly increasing and components constant along
    edges (so the graph is acyclic), and every edge a cover."""
    err = _common_checks(result)
    if err:
        return err
    nodes, edges = _poset_parts(result)
    dims = [dim for dim, _c in nodes.values()]
    if min(dims) != 0 or dims.count(0) != 1 or max(dims) > 2 * bound:
        return f"dims out of range: {sorted(dims)}"
    for lo, up in edges:
        if nodes[lo][0] >= nodes[up][0]:
            return f"dim does not increase along {lo}->{up}"
        if nodes[lo][1] != nodes[up][1]:
            return f"edge {lo}->{up} joins two components"
    succ = {}
    for lo, up in edges:
        succ.setdefault(lo, []).append(up)
    for lo, up in edges:
        # up must not be reachable from lo through a longer path
        stack = [m for m in succ[lo] if m != up]
        seen = set(stack)
        while stack:
            m = stack.pop()
            if m == up:
                return f"edge {lo}->{up} is not a cover"
            for nxt in succ.get(m, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return None


def _indecomposables(vectors):
    """Nonzero vectors that are not the sum of two nonzero vectors of the set."""
    vs = set(vectors)
    zero = tuple(0 for _ in next(iter(vs))) if vs else ()
    nonzero = vs - {zero}
    return {v for v in nonzero
            if not any(tuple(a - b for a, b in zip(v, w)) in nonzero for w in nonzero)}


def _partition_coeffs(u):
    """c_k = u_k - u_(k+1): coordinates of a partition over the omega_k."""
    return tuple(u[k] - (u[k + 1] if k + 1 < len(u) else 0) for k in range(len(u)))


def _su_relabelings(n, bound, program_vectors):
    """Candidate linear maps from partitions to program label vectors.

    The fundamental partitions within the bound are omega_1..omega_m (their
    dims increase with k) and generate the partition monoid freely, so the
    map must send them to the indecomposable program labels, in some order.
    """
    present = [w for w in o.fundamental_partitions(n) if o.su_dim(w) <= 2 * bound]
    tops = sorted(_indecomposables(program_vectors))
    if len(tops) != len(present):
        return
    width = len(next(iter(program_vectors))) if program_vectors else 0
    for gens in itertools.permutations(tops):
        def relabel(u, gens=gens):
            coeffs = _partition_coeffs(u)
            return tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(width))

        yield relabel


def check_su_poset(result, n, bound):
    """The program's poset is the image of the oracle's partition poset under
    one linear relabelling, with dims, edges and a single component."""
    err = _common_checks(result)
    if err:
        return err
    nodes, edges = _poset_parts(result)
    want_dims, want_edges = o.su_poset(n, bound)
    if len({c for _d, c in nodes.values()}) != 1:
        return "SU strata span several components"
    got = {parse_label(k)[0]: dim for k, (dim, _c) in nodes.items()}
    got_edges = {(parse_label(a)[0], parse_label(b)[0]) for a, b in edges}
    for relabel in _su_relabelings(n, bound, got):
        mapped = {relabel(u): dim for u, dim in want_dims.items()}
        if mapped == got and {(relabel(a), relabel(b)) for a, b in want_edges} == got_edges:
            return None
    return (f"poset differs from the SU({2 * n + 1}) closed form: "
            f"{len(got)} strata/{len(got_edges)} edges vs {len(want_dims)}/{len(want_edges)}")


def check_chain_poset(result, bound):
    """Strata k*g of dim 2k for k = 0..bound, each covering the one below."""
    err = _common_checks(result)
    if err:
        return err
    nodes, edges = _poset_parts(result)
    want_dims, want_edges = o.chain_poset(bound)
    by_dim = {dim: parse_label(k)[0] for k, (dim, _c) in nodes.items()}
    if sorted(by_dim) != sorted(want_dims.values()) or len(nodes) != len(want_dims):
        return f"chain dims {sorted(d for d, _c in nodes.values())}"
    if len({c for _d, c in nodes.values()}) != 1:
        return "chain strata span several components"
    g = by_dim.get(2)
    label = {k: by_dim[2 * k] for k in want_dims}
    if g is not None and any(label[k] != tuple(k * x for x in g) for k in want_dims):
        return "chain labels are not multiples of one generator"
    got_edges = {(parse_label(a)[0], parse_label(b)[0]) for a, b in edges}
    if got_edges != {(label[a], label[b]) for a, b in want_edges}:
        return "chain edges are not consecutive covers"
    return None


def check_su_dominant_image(result, datum, n, bound):
    """cone = partitions, image = classes of dominant absolute coweights, and
    the surjectivity flag agrees, under one linear relabelling."""
    cone = result["dominant_cone"]
    image = result["image"]
    want_cone = o.su_partitions(n, bound)
    want_image = o.su_dominant_image(datum, bound)
    got_cone = {parse_label(x)[0] for x in cone}
    got_image = {parse_label(x)[0] for x in image}
    if len(got_cone) != len(cone) or len(got_image) != len(image):
        return "duplicate labels"
    for relabel in _su_relabelings(n, bound, got_cone):
        if {relabel(u) for u in want_cone} == got_cone:
            if {relabel(u) for u in want_image} != got_image:
                return "dominant image differs from the brute-force image"
            if result["surjective_within_bound"] != (set(want_image) == set(want_cone)):
                return "surjectivity flag is wrong"
            return None
    return "dominant cone differs from the SU closed form"


# ---------------------------------------------------------------------------
# Branching and tensor products


class Folded:
    """The folded root datum `describe` reports, with its Weyl dimensions."""

    def __init__(self, roots, coroots):
        self.roots = [tuple(r) for r in roots]
        self.coroots = [tuple(c) for c in coroots]
        self.cartan = tuple(tuple(o.dot(c, r) for r in self.roots) for c in self.coroots)
        rank = len(self.roots[0]) if self.roots else 0
        # the sum of the positive coroots: twice the height functional
        self.height = (0,) * rank
        for b in o.positive_roots(o.transpose(self.cartan)):
            step = o._combine(b, self.coroots, rank)
            self.height = tuple(x + y for x, y in zip(self.height, step))

    def labels(self, weight):
        return tuple(o.dot(weight, c) for c in self.coroots)

    def is_dominant(self, weight):
        return all(m >= 0 for m in self.labels(weight))

    def dim(self, weight):
        return o.weyl_dimension(self.cartan, self.labels(weight))

    def reflect(self, i, weight):
        p = o.dot(weight, self.coroots[i])
        return tuple(x - p * r for x, r in zip(weight, self.roots[i]))

    def ht(self, weight):
        return o.dot(weight, self.height)


def _multiset(pairs):
    out = {}
    for label, m in pairs:
        free, tors = parse_label(label)
        if any(tors) or m <= 0:
            raise ValueError(f"bad entry {label}:{m}")
        out[free] = out.get(free, 0) + m
    return out


def _check_summands(folded, summands, want_dim, top):
    if any(not folded.is_dominant(w) for w in summands):
        return "a summand is not dominant"
    total = sum(m * folded.dim(w) for w, m in summands.items())
    if total != want_dim:
        return f"summand dimensions add to {total}, expected {want_dim}"
    best = max(folded.ht(w) for w in summands)
    tops = [w for w in summands if folded.ht(w) == best]
    if tops != [top] or summands[top] != 1:
        return f"top summand {tops} is not {top} with multiplicity 1"
    return None


def check_branch(result, abs_cartan, weight, folded):
    """Restriction and summands conserve the Weyl dimension of V(weight),
    the restriction is invariant under the folded Weyl group, and the top
    summand occurs once.  A modular refusal carries the restriction only."""
    want = o.weyl_dimension(abs_cartan, weight)
    try:
        restriction = _multiset(result["restriction"])
    except (ValueError, TypeError) as e:
        return str(e)
    if sum(restriction.values()) != want:
        return f"restriction has dimension {sum(restriction.values())}, expected {want}"
    for w, m in restriction.items():
        for i in range(len(folded.roots)):
            if restriction.get(folded.reflect(i, w), 0) != m:
                return f"restriction is not Weyl-invariant at {w}"
    if "error" in result:
        return None if "summands" not in result else "refusal carries summands"
    if result.get("total_dimension") != want:
        return "total_dimension disagrees with the Weyl dimension formula"
    top = max(restriction, key=folded.ht)
    return _check_summands(folded, _multiset(result["summands"]), want, top)


def check_tensor(result, folded, a, b):
    """Summand dimensions add to dim V(a) * dim V(b), and V(a+b) occurs once."""
    summands = _multiset(result["summands"])
    top = tuple(x + y for x, y in zip(a, b))
    return _check_summands(folded, summands, folded.dim(a) * folded.dim(b), top)


# ---------------------------------------------------------------------------
# Library session


def check_cell(datum, x_mu, x_lam, got):
    """(nonempty, dim) of an attractor cell against the SU closed form or
    the averaging oracle."""
    want = (o.su_mv_cell(x_mu, x_lam) if su_half_rank(datum.name) is not None
            else o.mv_cell(datum, x_mu, x_lam))
    return None if tuple(got) == want else f"mv cell {got}, expected {want}"


def check_conv(got, half1, half2):
    """The convolution cell is nonempty when both halves are, with the sum
    of their dimensions."""
    nonempty = half1[0] and half2[0]
    want = (nonempty, half1[1] + half2[1] if nonempty else None)
    return None if tuple(got) == want else f"conv cell {got}, expected {want}"


def check_corr(datum, levi, x, got):
    want = o.corr(datum, levi, x)
    return None if got == want else f"corr {got}, expected {want}"


def check_describe(datum, got):
    """|W0|, pi_1(G)_I and the folded Weyl order against the oracles."""
    w0 = o.relative_weyl_order(datum)
    if got["relative_weyl_order"] != w0:
        return f"|W0| = {got['relative_weyl_order']}, expected {w0}"
    want_pi1 = o.kottwitz_group(datum)
    if (got["pi1_free_rank"], tuple(got["pi1_torsion"])) != want_pi1:
        return f"pi1_I {got['pi1_free_rank']},{got['pi1_torsion']} expected {want_pi1}"
    if got["folded_cartan"] is not None and o.weyl_order(got["folded_cartan"]) != w0:
        return "folded Weyl order differs from |W0|"
    return None


def check_suite(records):
    failed = [r for r in records if not r[2]]
    return None if not failed else f"suite records failed: {failed[:3]}"
