"""Shared test helpers."""

import argparse
import contextlib
import functools
import io
import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, count
from itertools import product as iproduct
from math import comb, factorial, gcd, lcm, prod
from operator import add, getitem, gt, mod, mul
from typing import Callable, NamedTuple, Optional, Sequence

import pytest

from toricarr import __version__, intlat, oracle
from toricarr.errors import require_work
from toricarr.intlat import IntMatrix, saturate
from toricarr.rootsys import (
    RootSystem,
    TypeSymbol,
    _cartan_matrix,
    center_order,
    classify_dynkin,
    format_type,
    type_invariants,
)
from toricarr.subsys import Subsystem, enumerate_complete


# -- cold caches, as a fresh CLI process starts --


def _clear_every_cache():
    """Empty each lru_cache of a toricarr module or of a class defined in one."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "toricarr":
            continue
        values = list(vars(module).values())
        values += [
            getattr(attr, "fget", attr)
            for value in values
            if isinstance(value, type)
            for attr in vars(value).values()
        ]
        for value in values:
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()


@pytest.fixture
def clear_every_cache():
    return _clear_every_cache


# -- signed roots: RootSystem keeps one positive root per hypertorus, the references act on both signs --


class SignedRoots(NamedTuple):
    roots: tuple[tuple[int, ...], ...]  # the positive roots, then their negatives in the same order
    index: dict  # root -> its index in roots
    simples: tuple[int, ...]  # the index of each simple root alpha_1..alpha_n
    perms: tuple[tuple[int, ...], ...]  # perms[i][x]: the index of s_i(roots[x])


def _pairing_row(rs, root):
    """<root, alpha_i^vee> for each i, from the Cartan matrix: sum_j cartan[i][j] root_j."""
    return tuple(sum(map(mul, row, root)) for row in rs.cartan)


@functools.lru_cache(maxsize=None)  # the Weyl-group references read it once per element
def _signed_roots(rs):
    """Every root of rs, positive then negative, and each simple reflection as a permutation of them.

    RootSystem names each hypertorus by its positive root, so its
    reflection_perms act on hyperplanes.  Where -1 is in W (B_n, C_n, D_n for
    even n, E7, E8, F4 and G2), W acts on hyperplanes only through W/{+-1},
    so the Weyl-group references act on signed roots, built here from the
    Cartan matrix.
    """
    roots = rs.positive_roots + tuple(tuple(-x for x in r) for r in rs.positive_roots)
    index = {r: k for k, r in enumerate(roots)}
    perms = tuple(
        tuple(index[r[:i] + (r[i] - _pairing_row(rs, r)[i],) + r[i + 1:]] for r in roots)
        for i in range(rs.rank)
    )
    simples = tuple(index[tuple(int(i == j) for j in range(rs.rank))] for i in range(rs.rank))
    return SignedRoots(roots, index, simples, perms)


@pytest.fixture
def signed_roots():
    return _signed_roots


# -- subsystem assembly by pairwise sums, and the per-root span route that subsys replaced, kept as references --


def _reference_simple_system(rs, positive_indices):
    """Indecomposable elements of the positive part of a closed subsystem, by every pairwise sum."""
    pos = sorted(positive_indices)
    coords = {i: rs.positive_roots[i] for i in pos}
    sums = set()
    vecs = set(coords.values())
    for a in coords.values():
        for b in coords.values():
            s = tuple(x + y for x, y in zip(a, b))
            if s in vecs:
                sums.add(s)
    return tuple(i for i in pos if coords[i] not in sums)


@pytest.fixture
def reference_simple_system():
    return _reference_simple_system


def _reference_pair_roots(rs, a, b):
    """<a, b^vee> = 2(a,b)/(b,b) for roots a, b, where (a,b) = sum_i b_i d_i <a, alpha_i^vee>.

    The pairwise formula that RootSystem.cartan_of replaced, one pair at a time,
    for roots of either sign, each paired with the simple coroots through the Cartan matrix.
    """
    weights = list(map(mul, b, rs.symmetrizer))
    num = 2 * sum(map(mul, weights, _pairing_row(rs, a)))
    den = sum(map(mul, weights, _pairing_row(rs, b)))
    q, r = divmod(num, den)
    if r:
        raise AssertionError("non-integral Cartan pairing")
    return q


@pytest.fixture
def reference_pair_roots():
    return _reference_pair_roots


def _make_subsystem(rs, positive_indices):
    """Assemble a Subsystem from the indices of its positive roots, by every pairwise sum and pairing."""
    pos = tuple(sorted(positive_indices))
    simples = _reference_simple_system(rs, pos)
    coords = [rs.positive_roots[i] for i in simples]
    cartan = tuple(tuple(_reference_pair_roots(rs, b, a) for b in coords) for a in coords)
    return Subsystem(roots=pos, type=classify_dynkin(cartan), simples=simples, cartan=cartan)


def _positives_in_span(rs, null_vectors):
    """Positive roots in a rational span: those orthogonal to its null vectors (saturate's)."""
    inside = list(range(rs.n_positive))
    for k in null_vectors:
        inside = [i for i in inside if not sum(map(mul, rs.positive_roots[i], k))]
    return inside


@pytest.fixture
def make_subsystem():
    return _make_subsystem


def _is_complete(rs, positive_indices):
    """Whether the given positive roots are every positive root in their rational span."""
    pos = set(positive_indices)
    if not pos:
        return True
    _, null_vectors = saturate([rs.positive_roots[i] for i in pos])
    return len(_positives_in_span(rs, null_vectors)) == len(pos)


@pytest.fixture
def is_complete():
    return _is_complete


def _reference_span_levels(rs, top):
    """Rational spans of root subsets, one dict {basis: positives} per rank 0..top.

    Level r + 1 extends each rank-r span by one root at a time, saturating
    once per root; roots already in a flat found from that span give the
    same flat again, so they are skipped unsaturated.
    """
    levels = [{(): ()}]
    for _ in range(top):
        nxt = {}
        for basis, members in levels[-1].items():
            covered = set(members)
            for j in range(rs.n_positive):
                if j in covered:
                    continue
                new_basis, null_vectors = saturate(list(basis) + [rs.positive_roots[j]])
                if new_basis not in nxt:
                    nxt[new_basis] = tuple(_positives_in_span(rs, null_vectors))
                covered.update(nxt[new_basis])
        levels.append(nxt)
    return levels


def _reference_enumerate_complete(rs, d):
    """The members of K_d by the per-root span route, ordered by span basis."""
    target = rs.rank - d
    level = _reference_span_levels(rs, target)[target]
    return tuple(_make_subsystem(rs, pos) for _, pos in sorted(level.items()))


@pytest.fixture
def reference_enumerate_complete():
    return _reference_enumerate_complete


def _completion(rs, root_indices):
    """Smallest complete subsystem containing the given roots: every positive root in their span."""
    coords = [rs.positive_roots[i] for i in root_indices]
    if not coords:
        return _make_subsystem(rs, ())
    _, null_vectors = saturate(coords)
    return _make_subsystem(rs, _positives_in_span(rs, null_vectors))


@pytest.fixture
def completion():
    return _completion


def _span_orbits(rs, d):
    """W-orbits of the span route's K_d, found by walking the simple reflections.

    Each orbit is a tuple of Subsystems sorted by roots; orbits are ordered
    by their first member.  Independent of subsys.parabolic_classes: it
    starts from every member of enumerate_complete and acts on signed root
    indices, folding negatives back with % n_positive.
    """
    members = {m.roots: m for m in enumerate_complete(rs, d).members}
    npos = rs.n_positive
    gens = _signed_roots(rs).perms
    orbits = []
    seen = set()
    for roots in members:
        if roots in seen:
            continue
        orbit = {roots}
        queue = [roots]
        while queue:
            x = queue.pop()
            for g in gens:
                img = tuple(sorted(g[i] % npos for i in x))
                if img not in orbit:
                    assert img in members, "W-image left K_d"
                    orbit.add(img)
                    queue.append(img)
        seen |= orbit
        orbits.append(tuple(members[r] for r in sorted(orbit)))
    return sorted(orbits, key=lambda o: o[0].roots)


@pytest.fixture
def span_orbits():
    return _span_orbits


# -- Weyl group elements as root permutations, and the W_Z that weyl replaced, kept as references --


def _compose(a, b):
    """Root permutations composed as functions: compose(a, b)[x] = a[b[x]]."""
    return tuple(a[x] for x in b)


@pytest.fixture
def compose():
    return _compose


def _reference_longest_element(rs, p=None):
    """Longest element of W, or of the parabolic omitting vertex p (1-based), as a root permutation.

    Built by greedy length ascent (w -> w s_i whenever w.alpha_i > 0), which
    needs no group enumeration.
    """
    skip = None if p is None else p - 1
    if skip is not None and not 0 <= skip < rs.rank:
        raise IndexError(f"parabolic vertex {p} out of range")
    signed = _signed_roots(rs)
    w = tuple(range(len(signed.roots)))
    while True:
        for i in range(rs.rank):
            if i != skip and w[signed.simples[i]] < rs.n_positive:
                w = _compose(w, signed.perms[i])
                break
        else:
            return w


@pytest.fixture
def reference_longest_element():
    return _reference_longest_element


@dataclass(frozen=True)
class ReferenceCenterElement:
    vertex: int
    perm: tuple[int, ...]
    diagram_perm: tuple[int, ...]


def _reference_center_subgroup(rs):
    """W_Z = {1} u {w_0^p w_0 : a_p = 1} as root permutations, theta read off an irreducible closure."""
    if len(rs.factors) != 1:
        raise ValueError("W_Z is defined per irreducible factor")
    n = rs.rank
    theta = rs.positive_roots[-1]
    marks = (1,) + theta
    signed = _signed_roots(rs)
    lowest_idx = signed.index[tuple(-x for x in theta)]
    extended_idx = (lowest_idx,) + signed.simples
    w0 = _reference_longest_element(rs)
    out = [ReferenceCenterElement(0, tuple(range(len(signed.roots))), tuple(range(n + 1)))]
    for p in range(1, n + 1):
        if marks[p] != 1:
            continue
        z = _compose(_reference_longest_element(rs, p), w0)
        if z[lowest_idx] != extended_idx[p]:
            raise AssertionError(f"z_{p}.alpha_0 != alpha_{p}")
        images = []
        for q in range(n + 1):
            img = z[extended_idx[q]]
            if img not in extended_idx:
                raise AssertionError("z_p does not permute the extended simple roots")
            images.append(extended_idx.index(img))
        out.append(ReferenceCenterElement(p, z, tuple(images)))
    return tuple(out)


@pytest.fixture
def reference_center_subgroup():
    return _reference_center_subgroup


def _weyl_elements(rs):
    """Every element of W, by breadth-first search over the simple reflections.

    The tests' reference enumeration: its length pins |W| from the degree
    table, and its coroot matrices count point stabilizers directly.
    """
    perms = _signed_roots(rs).perms
    identity = tuple(range(2 * rs.n_positive))
    seen = {identity}
    out = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in perms:
                v = _compose(w, g)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        out.extend(nxt)
        frontier = nxt
    return tuple(out)


@pytest.fixture
def weyl_elements():
    return _weyl_elements


# -- the root closure and bilinear form that the pairing table replaced, kept as references --


def _positive_roots(cartan):
    """All positive roots by closure under root strings, height by height."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found = set(simple)
    current = list(simple)
    while current:
        nxt = set()
        for m in current:
            for i in range(n):
                pairing = sum(cartan[i][j] * m[j] for j in range(n))
                down = list(m)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) in found:
                        p += 1
                    else:
                        break
                if p - pairing > 0:
                    up = list(m)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in found:
                        nxt.add(cand)
        found |= nxt
        current = sorted(nxt)
    return sorted(found, key=lambda r: (sum(r), r))


@pytest.fixture
def reference_positive_roots():
    return _positive_roots


def _find_highest_roots(rs):
    """Highest root of each factor, read off the closure: its last positive root, checked to dominate."""
    out = []
    start = 0
    for sym in rs.factors:
        support = slice(start, start + sym.rank)
        cand = [r for r in rs.positive_roots if any(r[support])]
        top = cand[-1]  # the positive roots are ordered by height
        for r in cand:
            if any(map(gt, r, top)):
                raise AssertionError("highest root does not dominate")
        out.append(top)
        start += sym.rank
    return tuple(out)


@pytest.fixture
def reference_highest_roots():
    return _find_highest_roots


# -- the per-type routines that `rootsys.type_data` and `rootsys.center` replaced, kept as references --


def _reference_symmetrizer(cartan):
    """Positive integers d with d[i]*c[i][j] == d[j]*c[j][i], gcd 1 per block, for a block-diagonal matrix."""
    n = len(cartan)
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        comp = [start]
        d[start] = 1
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and cartan[i][j] and not d[j]:
                    num, den = d[i] * cartan[i][j], cartan[j][i]
                    scale = abs(den) // gcd(num, den)
                    for k in comp:
                        d[k] *= scale
                    d[j] = num * scale // den
                    comp.append(j)
                    queue.append(j)
        g = gcd(*(d[i] for i in comp))
        for i in comp:
            d[i] //= g
    return d


def _reference_highest_root(sym):
    """theta of an irreducible type: the ascent from a long simple root, one simple reflection a step."""
    cartan = _cartan_matrix(sym)
    d = _reference_symmetrizer(cartan)
    root = [int(i == d.index(max(d))) for i in range(sym.rank)]
    while True:
        for j, row in enumerate(cartan):
            c = sum(map(mul, row, root))
            if c < 0:
                root[j] -= c
                break
        else:
            return tuple(root)


def _reference_center_exponent(sym):
    """The least e with e Z^n inside the Cartan lattice, tried e = 1, 2, ..."""
    basis = intlat.hermite_normal_form(_cartan_matrix(sym))
    units = [[int(i == j) for j in range(sym.rank)] for i in range(sym.rank)]
    return next(
        e for e in count(1) if not any(any(intlat.residue(basis, [e * x for x in u])) for u in units)
    )


def _reference_center_order(factors):
    """|Z| of a product: per factor, the index in Z^n of the Cartan lattice."""
    return prod(intlat.index_in_zk(_cartan_matrix(sym), sym.rank) for sym in factors)


def _reference_order_bound(factors):
    """lcm over the factors of lcm(theta) * exp Z."""
    m = 1
    for sym in factors:
        m = lcm(m, lcm(*_reference_highest_root(sym)) * _reference_center_exponent(sym))
    return m


def _reference_delete_vertex(diagram, p):
    """Type of the affine diagram less vertex p: its (n x n) submatrix, classified anew."""
    keep = [v for v in diagram.vertices if v != p]
    return classify_dynkin([[diagram.cartan[i][j] for j in keep] for i in keep])


@pytest.fixture
def reference_delete_vertex():
    return _reference_delete_vertex


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def reference_symmetrizer():
    return _reference_symmetrizer


@pytest.fixture
def reference_highest_root():
    return _reference_highest_root


@pytest.fixture
def reference_center_exponent():
    return _reference_center_exponent


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def reference_center_order():
    return _reference_center_order


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def reference_order_bound():
    return _reference_order_bound


# -- the automorphism search that the breadth-first placement replaced, kept as a reference --


def _reference_diagram_automorphisms(diagram):
    """Every vertex permutation preserving the marks and the Cartan matrix, and their orbits.

    Each vertex in turn tries every unused vertex with the same invariant,
    checked against the images of all earlier vertices.
    """
    verts = list(diagram.vertices)
    c = diagram.cartan
    invariant = {
        v: (diagram.marks[v], sorted((c[v][w], c[w][v], diagram.marks[w]) for w in verts if c[v][w] < 0))
        for v in verts
    }
    autos = []
    image: dict[int, int] = {}
    used = set()

    def extend(i):
        if i == len(verts):
            autos.append(tuple(image[v] for v in verts))
            return
        v = verts[i]
        for w in verts:
            if w in used or invariant[v] != invariant[w]:
                continue
            if all(c[v][u] == c[w][image[u]] and c[u][v] == c[image[u]][w] for u in verts[:i]):
                image[v] = w
                used.add(w)
                extend(i + 1)
                used.remove(w)
                del image[v]

    extend(0)
    seen = set()
    orbits = []
    for v in verts:
        if v in seen:
            continue
        orb = sorted({a[v] for a in autos})
        orbits.append(tuple(orb))
        seen.update(orb)
    return tuple(sorted(autos)), tuple(orbits)


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def reference_diagram_automorphisms():
    return _reference_diagram_automorphisms


def _reference_recursive_diagram_automorphisms(diagram):
    """The breadth-first placement as a recursion, one frame per vertex, as the library ran it before.

    Each vertex after vertex 0 tries the neighbours of its parent's image,
    checked against the images of its neighbours placed before it.
    """
    verts = list(diagram.vertices)
    c = diagram.cartan
    adj = [[w for w in verts if w != v and c[v][w]] for v in verts]
    invariant = [
        (diagram.marks[v], sorted((c[v][w], c[w][v], diagram.marks[w]) for w in adj[v])) for v in verts
    ]
    order, parent = [0], {0: 0}
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    autos = []
    image: dict[int, int] = {}
    used = set()

    def extend(i):
        if i == len(order):
            autos.append(tuple(image[v] for v in verts))
            return
        v = order[i]
        for w in adj[image[parent[v]]] if i else verts:
            if w in used or invariant[v] != invariant[w]:
                continue
            if all(c[v][u] == c[w][image[u]] and c[u][v] == c[image[u]][w] for u in adj[v] if u in image):
                image[v] = w
                used.add(w)
                extend(i + 1)
                used.remove(w)
                del image[v]

    extend(0)
    seen = set()
    orbits = []
    for v in verts:
        if v in seen:
            continue
        orb = sorted({a[v] for a in autos})
        orbits.append(tuple(orb))
        seen.update(orb)
    return tuple(sorted(autos)), tuple(orbits)


@pytest.fixture(scope="session")
def reference_recursive_diagram_automorphisms():
    return _reference_recursive_diagram_automorphisms


def _inner(rs, a, b):
    """Invariant bilinear form (block-scaled to integers), from the Cartan matrix and symmetrizer."""
    total = 0
    for i in range(rs.rank):
        if a[i]:
            di = rs.symmetrizer[i]
            total += a[i] * di * sum(rs.cartan[i][j] * b[j] for j in range(rs.rank))
    return total


@pytest.fixture
def inner():
    return _inner


def _coroot_coords(rs, root):
    """Coordinates of root^vee in the simple-coroot basis: 2 m_i d_i / (root, root)."""
    norm = _inner(rs, root, root)
    out = []
    for m, d in zip(root, rs.symmetrizer):
        q, r = divmod(2 * m * d, norm)
        assert r == 0, "non-integral coroot coordinate"
        out.append(q)
    return tuple(out)


@pytest.fixture
def coroot_coords():
    return _coroot_coords


def _coroot_matrix(rs, w):
    """Matrix of the Weyl element w on simple-coroot coordinates (columns = images)."""
    n = rs.rank
    signed = _signed_roots(rs)
    cols = [_coroot_coords(rs, signed.roots[w[signed.simples[k]]]) for k in range(n)]
    return tuple(tuple(cols[k][i] for k in range(n)) for i in range(n))


@pytest.fixture
def coroot_matrix():
    return _coroot_matrix


# -- the argparse front end that cli._parse_args replaced, kept as its reference --


class _ReferenceUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ReferenceUsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"capability bounds must be positive integers, not {text!r}")
    return value


_REFERENCE_FORMATS = {
    "points": {"json", "text"},
    "layers": {"json", "text"},
    "census": {"json", "text", "csv"},
    "poincare": {"json", "text"},
    "euler": {"json", "text"},
    "identity": {"json", "text"},
    "poset": {"json", "text", "dot"},
    "verify": {"json", "text"},
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="toricarr")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _REFERENCE_FORMATS:
        p = sub.add_parser(name)
        p.add_argument("--type", required=True, help='root system type, e.g. "F4" or "A3xA1"')
        p.add_argument("--format", default="text", choices=["json", "csv", "dot", "text"])
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if name in ("poset", "verify"):
            p.add_argument("--poset-rank", type=_positive_int, default=oracle.DEFAULT_POSET_RANK)
    return parser


def _reference_parse(argv):
    """What the argparse front end made of argv, together with main's format check.

    ("args", fields) with poset_rank defaulted on every command,
    ("error", message), or ("printed", stdout) after -h or --version.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 0
        return "printed", out.getvalue()
    except _ReferenceUsageError as exc:
        return "error", str(exc)
    if args.format not in _REFERENCE_FORMATS[args.command]:
        return "error", f"format {args.format!r} is not available for {args.command!r}"
    return "args", {"poset_rank": oracle.DEFAULT_POSET_RANK, **vars(args)}


@pytest.fixture
def reference_parse():
    return _reference_parse


# -- the regular-expression type parser that rootsys.parse_type replaced, kept as its reference --


def _reference_parse_type(text):
    parts = re.split(r"[xX*]", text.strip())
    factors = []
    for part in parts:
        m = re.fullmatch(r"([A-Ga-g])(\d+)", part.strip())
        if not m:
            raise ValueError(f"cannot parse type {part!r} in {text!r}")
        factors.append(TypeSymbol.of(m.group(1), int(m.group(2))))
    if not factors:
        raise ValueError("empty type string")
    return tuple(sorted(factors))


@pytest.fixture
def reference_parse_type():
    return _reference_parse_type


# -- the A-series partition formulas, kept as references for the A_{n-1} census --


def _partitions(n):
    """Integer partitions of n in decreasing order, largest part first."""
    out = []

    def rec(remaining, maximum, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maximum), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def _b_lambda(lam):
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    return prod(factorial(i) ** b * factorial(b) for i, b in mult.items())


def _a_series_census(n, d):
    """Layer count of A_{n-1} at dimension d, from partitions of n alone.

    A partition lambda with k parts describes tangent spaces of dimension
    k - 1; each contributes n! g_lambda / b_lambda layers, where g_lambda
    is the gcd of the parts.
    """
    breakdown = tuple(
        (lam, factorial(n) * gcd(*lam) // _b_lambda(lam)) for lam in _partitions(n) if len(lam) == d + 1
    )
    return sum(count for _, count in breakdown), breakdown


def _a_series_poincare(n):
    """Poincare polynomial of the A_{n-1} complement by partitions alone, lowest degree first.

    Each partition with d + 1 parts adds its coefficient times (q+1)^d q^(n-1-d).
    """
    total = [0] * n
    for lam in _partitions(n):
        d = len(lam) - 1
        coeff = factorial(n) * gcd(*lam) * prod(factorial(p - 1) for p in lam) // _b_lambda(lam)
        for k in range(d + 1):
            total[n - 1 - d + k] += coeff * comb(d, k)
    return tuple(total)


@pytest.fixture
def partitions():
    return _partitions


@pytest.fixture
def a_series_census():
    return _a_series_census


@pytest.fixture
def a_series_poincare():
    return _a_series_poincare


# -- the signed set partitions, kept as references for the B_n, C_n and D_n classes of flats --


def _signed_partition_classes(family, n):
    """W-orbits of the flats of B_n, C_n or D_n as a Counter of (d, type, orbit size), by signed set partitions.

    A flat sets a block of k coordinates to zero and splits the other n - k
    into blocks lambda, on each of which the coordinates agree up to sign
    (Orlik-Solomon 1983, "Coxeter arrangements"; Orlik-Terao 1992, 6.4;
    Barcelo-Ihrig 1999).  The orbit of (k, lambda) holds
    n! / (k! prod lambda_i! prod m_j!) * prod 2^(lambda_i - 1) flats, with m_j
    the number of parts equal to j, of type the family's rank-k type times
    A_{lambda_i - 1} per part, at d = len(lambda).  In D_n, k is never 1, and
    for k = 0 with every part even the orbit splits into two of half the size.
    """
    out = Counter()
    for k in range(n + 1):
        if family == "D" and k == 1:
            continue
        if k == 0:
            zero = ()
        elif (family, k) == ("D", 2):
            zero = (TypeSymbol("A", 1),) * 2
        else:
            zero = (TypeSymbol.of(family, k),)
        for lam in _partitions(n - k):
            flat_type = format_type(zero + tuple(TypeSymbol("A", p - 1) for p in lam if p > 1))
            symmetry = factorial(k) * prod(map(factorial, lam)) * prod(map(factorial, Counter(lam).values()))
            size = factorial(n) // symmetry * prod(2 ** (p - 1) for p in lam)
            if family == "D" and k == 0 and all(p % 2 == 0 for p in lam):
                out[(len(lam), flat_type, size // 2)] += 2
            else:
                out[(len(lam), flat_type, size)] += 1
    return out


@pytest.fixture
def signed_partition_classes():
    return _signed_partition_classes


# -- the Hermite form's first-nonzero-pivot Euclid loop and the coordinate solver on it, kept as references --


def _reference_hermite_normal_form(rows: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonical (row-style) HNF basis of the row lattice, zero rows dropped.

    Column by column, the first row with a nonzero entry becomes the pivot
    row, and Euclid runs on the remaining rows of that column, rescanning
    them all on every round.
    """
    a = [list(map(int, row)) for row in rows if any(row)]
    if not a:
        return ()
    n = len(a[0])
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(a)):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        while True:
            nz = [i for i in range(r + 1, len(a)) if a[i][c]]
            if not nz:
                break
            for i in nz:
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                if a[i][c]:
                    a[r], a[i] = a[i], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return tuple(tuple(row) for row in a[:r])


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def reference_hermite_normal_form():
    return _reference_hermite_normal_form


def _coords_solver(
    basis: IntMatrix,
) -> Callable[[Sequence[int]], Optional[tuple[int, ...]]]:
    """A solver for integer x with x @ basis == vec, None when vec is not in the lattice.

    The HNF of [basis | I_k] is computed once; its rows are (x @ basis, x).
    The residue of (vec, 0) is (vec, 0) - (x @ basis, x) for some integer
    x, so vec is in the lattice exactly when its first n entries are zero,
    and then x is the negated rest.
    """
    hnf = intlat.graph_hnf(list(zip(*basis)), len(basis))

    def solve(vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        rest = intlat.residue(hnf, [*vec, *(0 for _ in basis)])
        if any(rest[:len(vec)]):
            return None
        return tuple(-x for x in rest[len(vec):])

    return solve


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def coords_solver():
    return _coords_solver


# -- the Smith normal form and the routines on it that intlat's Hermite form replaced, kept as references --


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ matrix @ right == diagonal, with left/right unimodular."""

    left: tuple[tuple[int, ...], ...]
    diagonal: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]

    @property
    def divisors(self) -> tuple[int, ...]:
        """The nonzero elementary divisors d_1 | d_2 | ..."""
        out = []
        for i, row in enumerate(self.diagonal):
            if i < len(row) and row[i]:
                out.append(row[i])
        return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def smith_normal_form(mat: IntMatrix) -> SmithDecomposition:
    """Smith normal form with exact unimodular transforms.

    Pivots are chosen by minimal absolute value with a deterministic
    tie-break (lowest row, then lowest column), so identical inputs give
    identical decompositions.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    left = identity_matrix(m)
    right = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + c * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in right:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        exhausted = False
        while True:
            # Re-select the minimal-magnitude pivot of the trailing submatrix
            # on every round; this keeps intermediate entries small.
            best = None
            pivot = None
            for i in range(t, m):
                for j in range(t, n):
                    v = abs(a[i][j])
                    if v and (best is None or v < best):
                        best, pivot = v, (i, j)
            if pivot is None:
                exhausted = True
                break
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
            clean = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, -q)
                    if a[t][j]:
                        clean = False
            if clean:
                break
        if exhausted:
            break
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            left[i] = [-x for x in left[i]]

    # Enforce the divisibility chain d_i | d_j (i < j) via 2x2 unimodular
    # transforms that replace (d_i, d_j) by (gcd, lcm).
    def rows_2x2(mat, i, j, u):
        ri, rj = mat[i], mat[j]
        mat[i] = [u[0][0] * p + u[0][1] * q for p, q in zip(ri, rj)]
        mat[j] = [u[1][0] * p + u[1][1] * q for p, q in zip(ri, rj)]

    def cols_2x2(mat, i, j, v):
        for row in mat:
            ci, cj = row[i], row[j]
            row[i] = ci * v[0][0] + cj * v[1][0]
            row[j] = ci * v[0][1] + cj * v[1][1]

    r = sum(1 for i in range(min(m, n)) if a[i][i])
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            for j in range(i + 1, r):
                di, dj = a[i][i], a[j][j]
                if dj % di == 0:
                    continue
                g, x, y = _xgcd(di, dj)
                lcm = di // g * dj
                u = ((x, y), (-dj // g, di // g))
                v = ((1, -y * dj // g), (1, x * di // g))
                rows_2x2(a, i, j, u)
                rows_2x2(left, i, j, u)
                cols_2x2(a, i, j, v)
                cols_2x2(right, i, j, v)
                if (a[i][i], a[j][j]) != (g, lcm):
                    raise AssertionError("2x2 transform broke the divisibility chain")
                changed = True
    return SmithDecomposition(
        left=tuple(tuple(row) for row in left),
        diagonal=tuple(tuple(row) for row in a),
        right=tuple(tuple(row) for row in right),
    )


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def reference_smith_normal_form():
    return smith_normal_form


def _reference_saturate(
    rows: IntMatrix,
) -> tuple[tuple[tuple[int, ...], ...], int, tuple[tuple[int, ...], ...]]:
    """Saturation of the row lattice inside Z^n, with its null vectors.

    Returns (canonical HNF basis of span_Q(rows) ∩ Z^n, index of the row
    lattice inside its saturation, n - r vectors spanning the integer
    vectors orthogonal to every row).  An integer vector lies in the span
    exactly when it is orthogonal to every null vector.
    """
    n = len(rows[0]) if rows else 0
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return (), 1, tuple(map(tuple, identity_matrix(n)))
    snf = smith_normal_form(rows)
    cols = list(zip(*rows))
    # left @ rows = diagonal @ right^-1, so row i of left @ rows, divided
    # exactly by d_i, is row i of right^-1.  The first r rows of right^-1
    # are part of a basis of Z^n and span the saturation; the last n - r
    # columns of right span the null space of the rows.
    inverse_rows = [
        [sum(x * y for x, y in zip(snf.left[i], col)) // d for col in cols]
        for i, d in enumerate(snf.divisors)
    ]
    null_vectors = tuple(zip(*snf.right))[len(inverse_rows):]
    return intlat.hermite_normal_form(inverse_rows), prod(snf.divisors), null_vectors


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def reference_saturate():
    return _reference_saturate


def _reference_coords_solver(
    basis: IntMatrix,
) -> Callable[[Sequence[int]], Optional[tuple[int, ...]]]:
    """A solver for integer x with x @ basis == vec, None when vec is not in the lattice.

    The Smith form of the basis is computed once.  From left @ basis @
    right = diagonal and w = vec @ right, a solution needs w_j = 0 beyond
    the rank and d_i | w_i; then x = (w_i / d_i) @ left, with the
    coefficients of dependent rows set to 0.
    """
    if not basis:
        return lambda vec: () if not any(vec) else None
    snf = smith_normal_form(basis)
    divisors = snf.divisors
    right_cols = list(zip(*snf.right))
    left_cols = list(zip(*snf.left))

    def solve(vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        w = [sum(map(mul, vec, col)) for col in right_cols]
        if any(w[len(divisors):]):
            return None
        y = []
        for wi, d in zip(w, divisors):
            q, r = divmod(wi, d)
            if r:
                return None
            y.append(q)
        return tuple(sum(map(mul, y, col)) for col in left_cols)

    return solve


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def reference_coords_solver():
    return _reference_coords_solver


def _reference_center_grid_vectors(rs: RootSystem, m: int) -> list[tuple[int, ...]]:
    """Coweight representatives of Z(Phi) as grid vectors mod m."""
    ct = [[rs.cartan[k][j] for j in range(rs.rank)] for k in range(rs.rank)]
    ct = [list(col) for col in zip(*ct)]  # transpose: rows index alpha_j
    snf = smith_normal_form(ct)
    divisors = snf.divisors
    # Lambda = (C^T)^{-1} Z^n; elements: V @ y with y_i in (1/d_i)Z.
    out = []
    ranges = [range(d) for d in divisors]
    for combo in iproduct(*ranges):
        vec = [0] * rs.rank
        for i, (j, d) in enumerate(zip(combo, divisors)):
            if m % d:
                raise AssertionError("center exponent does not divide the grid modulus")
            step = j * (m // d)
            for k in range(rs.rank):
                vec[k] += snf.right[k][i] * step
        out.append(tuple(x % m for x in vec))
    if len(out) != center_order(rs.factors):
        raise AssertionError("center grid vectors do not match the center order")
    return out


@pytest.fixture
def reference_center_grid_vectors():
    return _reference_center_grid_vectors


# -- the lattice index that layers.n_theta replaced, kept as its reference --


def _lattice_index(sup_rows, sub_rows):
    """Index [sup : sub] of one integer lattice inside another, by coordinates in sup.

    Both lattices are given by generating rows and must have equal rank;
    raises ValueError when sub is not contained in sup.
    """
    sup = intlat.hermite_normal_form(sup_rows)
    solve = _coords_solver(sup)
    coeff_rows = []
    for row in sub_rows:
        coeffs = solve(row)
        if coeffs is None:
            raise ValueError("sublattice not contained in the lattice")
        coeff_rows.append(coeffs)
    divisors = smith_normal_form(coeff_rows).divisors if coeff_rows else ()
    if len(divisors) != len(sup):
        raise ValueError("lattices have different ranks")
    return prod(divisors)


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def lattice_index():
    return _lattice_index


# -- the recursive torsion-grid kernel that oracle._grid_points replaced, kept as its reference --


def _recursive_grid_points(
    rows: Sequence[Sequence[int]], m: int, rank: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every x in Z_m^rank whose vanishing rows have full rank, with those rows.

    Row u vanishes at x when u . x = 0 mod m.  Returns (x, indices of the
    vanishing rows) in lexicographic order of x.  Every candidate is
    scanned: row values are built one coordinate at a time from residue
    tables, the last coordinate is read off a table of the coordinates at
    which each row vanishes, and the rank test runs once per distinct
    vanishing set.  The work, candidates times rows, is bounded; F4 is
    12^4 x 24 = 497664.
    """
    require_work(f"grid scan of {m}^{rank} candidates x {len(rows)} roots", m**rank * len(rows))
    if rank == 0:
        return [((), tuple(range(len(rows))))]
    # tables[k][c][i] = (rows[i][k] * c) mod m
    tables = [[tuple(u[k] * c % m for u in rows) for c in range(m)] for k in range(rank - 1)]
    # zeros[i][v]: the last coordinates c at which row i vanishes, given value v so far
    zeros = [
        [tuple(c for c in range(m) if (v + u[-1] * c) % m == 0) for v in range(m)] for u in rows
    ]
    moduli = (m,) * len(rows)
    full_rank: dict[tuple[int, ...], bool] = {}
    out = []

    def scan(prefix: tuple[int, ...], values: tuple[int, ...]) -> None:
        k = len(prefix)
        if k < rank - 1:
            for c, column in enumerate(tables[k]):
                scan(prefix + (c,), tuple(map(mod, map(add, values, column), moduli)))
            return
        last = list(map(getitem, zeros, values))
        hits = Counter(chain.from_iterable(last))
        for c in sorted([c for c, count in hits.items() if count >= rank]):
            vanishing = tuple(i for i, cs in enumerate(last) if c in cs)
            if vanishing not in full_rank:
                basis = intlat.hermite_normal_form([rows[i] for i in vanishing])
                full_rank[vanishing] = len(basis) == rank
            if full_rank[vanishing]:
                out.append((prefix + (c,), vanishing))

    scan((), (0,) * len(rows))
    return out


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def recursive_grid_points():
    return _recursive_grid_points


# -- the points of oracle.brute_points with their grid coordinates --


def _brute_point_grid(rs):
    """(grid coordinates in units of 1/order_bound, record) of each point of oracle.brute_points.

    brute_points returns its records in the order of the point scan it runs.
    """
    grid = oracle._grid_points(rs.pairings, oracle.order_bound(rs.factors), rs.rank)
    return list(zip(grid, oracle.brute_points(rs), strict=True))


@pytest.fixture
def brute_point_grid():
    return _brute_point_grid


# -- the orbit walks that subsys.parabolic_classes replaced, kept as references --


def _reference_signed_parabolic_classes(rs: RootSystem, d: int) -> tuple[tuple, ...]:
    """W-orbits of K_d as (lex-minimal member, orbit size), ordered by roots.

    Walks each standard parabolic flat's orbit under the simple
    reflections on sorted tuples of positive indices, acting on signed roots
    and folding negatives back with % n_positive, and rebuilds each
    representative with make_subsystem: simple-system search and Cartan pairings.
    """
    if not 0 <= d <= rs.rank:
        raise ValueError(f"dimension {d} out of range for rank {rs.rank}")
    require_work(
        f"flat orbit walk of {format_type(rs.factors)}: |W|",
        type_invariants(rs.factors).weyl_order,
    )
    npos = rs.n_positive
    gens = _signed_roots(rs).perms
    seen: set[tuple[int, ...]] = set()
    classes = []
    for J in combinations(range(rs.rank), rs.rank - d):
        outside = [k for k in range(rs.rank) if k not in J]
        flat = tuple(i for i in range(npos) if not any(rs.positive_roots[i][k] for k in outside))
        if flat in seen:
            continue
        orbit = {flat}
        queue = [flat]
        while queue:
            x = queue.pop()
            for g in gens:
                img = tuple(sorted(g[i] % npos for i in x))
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        seen |= orbit
        classes.append((_make_subsystem(rs, min(orbit)), len(orbit)))
    classes.sort(key=lambda c: c[0].roots)
    return tuple(classes)


@pytest.fixture
def reference_signed_parabolic_classes():
    return _reference_signed_parabolic_classes


# The walk that carried each flat's sorted roots with its simple system, mapping every flat it visits.


def _reference_parabolic_classes(rs: RootSystem, d: int) -> tuple[tuple[Subsystem, int], ...]:
    """W-orbits of K_d as (lex-minimal member, orbit size), ordered by roots.

    Every flat of the Coxeter arrangement is W-conjugate to a standard
    parabolic one (Steinberg; Orlik-Solomon 1983), so each orbit contains
    some X_J, the positive roots supported on J with |J| = n - d.  Orbits
    are walked under the simple reflections, each flat keyed by its positive
    simple system, the image of J's simple roots.  s_i is skipped when it
    reached the flat or alpha_i is in that base (s_i fixes the flat).  A
    simple root in a flat is simple in it, so otherwise alpha_i is not in the
    flat, and s_i turns none of its positive roots negative (Humphreys 1990,
    Prop. 1.4).  W acts unimodularly on Z^n, so the base spans a saturated
    lattice; it keeps J's Cartan matrix, and its HNF only guards its rank.

    The flats X satisfy sum |mu(X)| = |W| with every |mu(X)| >= 1
    (Orlik-Solomon 1983), so the walk visits at most |W| of them; larger
    groups are refused.
    """
    if not 0 <= d <= rs.rank:
        raise ValueError(f"dimension {d} out of range for rank {rs.rank}")
    require_work(
        f"flat orbit walk of {format_type(rs.factors)}: |W|",
        type_invariants(rs.factors).weyl_order,
    )
    gens = tuple(zip(rs.simple_indices, rs.reflection_perms))
    support = [sum(1 << k for k, c in enumerate(r) if c) for r in rs.positive_roots]
    seen: set[tuple[int, ...]] = set()
    classes = []
    for J in combinations(range(rs.rank), rs.rank - d):
        start = tuple(rs.simple_indices[j] for j in J)
        if tuple(sorted(start)) in seen:
            continue
        mask = sum(1 << j for j in J)
        least = (tuple(i for i, s in enumerate(support) if not s & ~mask), start)
        orbit = {tuple(sorted(start))}
        queue = [(*least, None)]
        while queue:
            flat, base, back = queue.pop()
            for simple, g in gens:
                if simple in base or g is back:
                    continue
                img = tuple([g[b] for b in base])
                if (key := tuple(sorted(img))) not in orbit:
                    orbit.add(key)
                    queue.append((tuple(sorted([g[i] for i in flat])), img, g))
                    least = min(least, queue[-1][:2])
        seen |= orbit
        flat, base = least
        order = sorted(range(len(J)), key=base.__getitem__)
        simples = tuple(base[a] for a in order)
        rank = len(intlat.hermite_normal_form([rs.positive_roots[i] for i in simples]))
        if not set(simples) <= set(flat) or rank != len(simples):
            raise AssertionError(
                f"the carried simple roots {simples} of a flat of {format_type(rs.factors)} "
                "are not positive roots of it of full rank"
            )
        cartan = tuple(tuple(rs.cartan[J[a]][J[b]] for b in order) for a in order)
        theta = Subsystem(flat, classify_dynkin(cartan), simples, cartan)
        classes.append((theta, len(orbit)))
    classes.sort(key=lambda c: c[0].roots)
    return tuple(classes)


@pytest.fixture
def reference_parabolic_classes():
    return _reference_parabolic_classes


# -- the diagram classifier that rootsys._classify_diagram folded into one function, kept as its reference --


def _reference_classify_diagram(
    adj: Sequence[Sequence[int]], cartan: Sequence[Sequence[int]], deleted: Optional[int] = None
) -> tuple[TypeSymbol, ...]:
    """Types of the components of the diagram with adjacency lists `adj`, less the vertex `deleted`."""
    adj = [[w for w in ws if w != deleted] for ws in adj]
    seen = {deleted}
    out = []
    for v in range(len(adj)):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        queue = [v]
        while queue:
            for y in adj[queue.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        out.append(_reference_classify_component(comp, adj, cartan))
    return tuple(sorted(out))


def _reference_classify_component(
    comp: Sequence[int], adj: Sequence[Sequence[int]], cartan: Sequence[Sequence[int]]
) -> TypeSymbol:
    k = len(comp)
    if k == 1:
        return TypeSymbol("A", 1)
    degree = {v: len(adj[v]) for v in comp}
    if sum(degree.values()) != 2 * (k - 1):
        raise ValueError("graph is not a tree: not a finite Dynkin diagram")
    multi = [(v, w) for v in comp for w in adj[v] if v < w and cartan[v][w] * cartan[w][v] != 1]
    if not multi:
        if all(d <= 2 for d in degree.values()):
            return TypeSymbol("A", k)
        branches = [v for v in comp if degree[v] == 3]
        if len(branches) != 1 or any(d > 3 for d in degree.values()):
            raise ValueError("not a finite Dynkin diagram")
        b = branches[0]
        arms = []
        for w in adj[b]:
            length = 1
            prev, cur = b, w
            while degree[cur] == 2:
                prev, cur = cur, next(x for x in adj[cur] if x != prev)
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            return TypeSymbol("D", k)
        if arms == [1, 2, 2]:
            return TypeSymbol("E", 6)
        if arms == [1, 2, 3]:
            return TypeSymbol("E", 7)
        if arms == [1, 2, 4]:
            return TypeSymbol("E", 8)
        raise ValueError("not a finite Dynkin diagram")
    if len(multi) != 1 or any(d > 2 for d in degree.values()):
        raise ValueError("not a finite Dynkin diagram")
    v, w = multi[0]
    bond = (-cartan[w][v], -cartan[v][w])  # (|<alpha_v, alpha_w^vee>|, |<alpha_w, alpha_v^vee>|)
    if sorted(bond) == [1, 3]:
        if k != 2:
            raise ValueError("triple bond only occurs in G2")
        return TypeSymbol("G", 2)
    if sorted(bond) != [1, 2]:
        raise ValueError(f"unrecognized bond {bond}")
    if k == 2:
        return TypeSymbol("B", 2)  # canonical alias of C2
    # Chain with one double bond: B/C when at an end, F4 in the middle.
    if degree[v] != 1 and degree[w] != 1:
        if k == 4:
            return TypeSymbol("F", 4)
        raise ValueError("interior double bond only occurs in F4")
    end, other = (v, w) if degree[v] == 1 else (w, v)
    # <alpha_end, alpha_other^vee> = -2 means the end root is the long one.
    return TypeSymbol("C" if cartan[other][end] == -2 else "B", k)


@pytest.fixture(scope="session")  # session scope: hypothesis tests take it too
def reference_classify_diagram():
    return _reference_classify_diagram


# -- the order of a layer poset, read from its covers --------------------------


def _poset_order(poset) -> frozenset:
    """Pairs (i, j) with layer i inside layer j: the reflexive transitive closure of the covers."""
    up: list[list[int]] = [[] for _ in poset.layers]
    for i, j in poset.covers():
        up[i].append(j)
    order = set()
    for i in range(len(up)):
        seen, stack = {i}, [i]
        while stack:
            for j in up[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        order.update((i, j) for j in seen)
    return frozenset(order)


@pytest.fixture
def poset_order():
    return _poset_order
