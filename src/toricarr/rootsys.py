"""Crystallographic root systems with exact integer data.

Conventions, fixed globally:
  * roots carry integer coordinates in the simple-root basis;
  * coroots carry integer coordinates in the simple-coroot basis;
  * cartan[i][j] = <alpha_j, alpha_i^vee>, so the pairing of a root with
    coordinates m against the i-th simple coroot is sum_j cartan[i][j]*m[j].

Root data is generated by closure from the Cartan matrix (root strings),
one code path for every type; the per-type coordinate models appear only
in tests.  A root system is its positive roots, each naming the hypertorus
of a root up to sign.  The closure carries each positive root's pairings
with the simple coroots, and every later pairing and reflection reads that
table; it also records each root's support, as a bit mask.
Each irreducible type has one record, `type_data`, built once with no
closure: its Cartan matrix and symmetrizer, its affine diagram, whose
marks (1, theta) come from one ascent from a long simple root, and its
vertex deletions, each typed by a walk of the diagram's adjacency lists
less that vertex.  A product reads its factors' records, in blocks.
A Dynkin diagram, affine or of a subsystem, is encoded only by its Cartan
matrix, and `classify_dynkin` types it from the nonzero off-diagonal
entries.  The Weyl-group invariants, and the number of positive roots
(the sum of the exponents), come from the degree tables.  Only the
oracles read the center: `center` takes |Z| and its exponent from one
Hermite normal form of the Cartan lattice.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, prod
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

from . import errors, intlat

_RANK_MIN = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_RANK_MAX = {"E": 8, "F": 4, "G": 2}
_ALIASES = {("B", 1): ("A", 1), ("C", 1): ("A", 1), ("C", 2): ("B", 2), ("D", 3): ("A", 3)}


class _TypeFields(NamedTuple):
    """TypeSymbol's fields; a NamedTuple cannot override __new__, where TypeSymbol checks them."""

    family: str
    rank: int


class TypeSymbol(_TypeFields):
    """An irreducible type in canonical form (aliases already resolved)."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in _RANK_MIN:
            raise errors.UsageError(f"unknown family {family!r}")
        if rank < _RANK_MIN[family] or rank > _RANK_MAX.get(family, 10 ** 9):
            raise errors.UsageError(f"{family}{rank} is not a valid canonical type")
        return super().__new__(cls, family, rank)

    @classmethod
    def of(cls, family: str, rank: int) -> "TypeSymbol":
        """Normalize low-rank aliases (B1, C1 -> A1; C2 -> B2; D3 -> A3)."""
        family = family.upper()
        if rank < 1:
            raise errors.UsageError(f"rank must be positive, got {family}{rank}")
        family, rank = _ALIASES.get((family, rank), (family, rank))
        return cls(family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"


def _symbol(family: str, rank: int) -> TypeSymbol:
    """A TypeSymbol the diagram classifier derived, canonical by construction, so built without the checks."""
    return tuple.__new__(TypeSymbol, (family, rank))


def parse_type(text: str) -> tuple[TypeSymbol, ...]:
    """Parse a type string like "F4" or "A3xA1" into canonical factors.

    Factors are separated by x, X or *; each is a letter A-G (either case)
    followed by decimal digits, with whitespace around it ignored.
    """
    factors = []
    for part in text.strip().replace("X", "x").replace("*", "x").split("x"):
        name = part.strip()
        # isdecimal() is exactly the Unicode Nd digits that int() reads.
        if len(name) < 2 or name[0] not in "ABCDEFGabcdefg" or not name[1:].isdecimal():
            raise errors.UsageError(f"cannot parse type {part!r} in {text!r}")
        try:
            rank = int(name[1:])
        except ValueError as exc:  # more digits than int() converts
            raise errors.UsageError(str(exc)) from None
        factors.append(TypeSymbol.of(name[0], rank))
    return tuple(sorted(factors))


def format_type(factors: Sequence[TypeSymbol]) -> str:
    """Render a product of factors ("A0" for the empty product)."""
    if not factors:
        return "A0"
    return "x".join(str(f) for f in sorted(factors))


def _cartan_matrix(sym: TypeSymbol) -> list[list[int]]:
    n = sym.rank
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        # c[i][j] = <alpha_j, alpha_i^vee>
        c[i][j] = cij
        c[j][i] = cji

    fam = sym.family
    if fam in "ABCF":
        for i in range(n - 1):
            bond(i, i + 1)
        if fam == "B":
            bond(n - 2, n - 1, -1, -2)  # alpha_n short
        elif fam == "C":
            bond(n - 2, n - 1, -2, -1)  # alpha_n long
        elif fam == "F":
            bond(1, 2, -1, -2)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif fam == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5)] + [(5, 6)] * (n >= 7) + [(6, 7)] * (n >= 8):
            bond(i, j)
        bond(1, 3)
    elif fam == "G":
        bond(0, 1, -3, -1)  # alpha_1 short
    return c


def _symmetrizer(cartan: Sequence[Sequence[int]]) -> list[int]:
    """Positive integers d with d[i]*c[i][j] == d[j]*c[j][i] and gcd 1, for a connected diagram."""
    d = [1] + [0] * (len(cartan) - 1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j, cij in enumerate(cartan[i]):
            if i != j and cij and not d[j]:
                # d_j = d_i * c[i][j] / c[j][i]; scale d first when that is no integer.
                num, den = d[i] * cij, cartan[j][i]
                scale = abs(den) // gcd(num, den)
                d = [x * scale for x in d]
                d[j] = num * scale // den
                queue.append(j)
    g = gcd(*d)
    return [x // g for x in d]


def _closure(
    cartan: Sequence[Sequence[int]],
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """Positive roots ordered by height, then coordinates, with their pairings <beta, alpha_i^vee> and supports.

    Each root of the current height also carries p_i, the length of its
    alpha_i-string below it, and beta + alpha_i is a root iff
    p_i(beta) > <beta, alpha_i^vee>.  That root gamma has beta's pairings
    plus column i of the Cartan matrix, beta's support plus bit i, and
    p_i(gamma) = p_i(beta) + 1.
    Every root gamma - alpha_k of this height reaches gamma this way, so a
    p_k of gamma still 0 means gamma - alpha_k is no root.
    """
    n = len(cartan)
    columns = [tuple(row[i] for row in cartan) for i in range(n)]
    level = {tuple(int(i == j) for j in range(n)): (columns[i], [0] * n, 1 << i) for i in range(n)}
    roots, pairings, supports = [], [], []
    while level:
        upper: dict = {}
        for beta in sorted(level):
            pairing, down, support = level[beta]
            roots.append(beta)
            pairings.append(pairing)
            supports.append(support)
            for i in range(n):
                if down[i] > pairing[i]:
                    gamma = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if gamma not in upper:
                        upper[gamma] = (tuple(map(add, pairing, columns[i])), [0] * n, support | 1 << i)
                    upper[gamma][1][i] = down[i] + 1
        level = upper
    return roots, pairings, supports


def _pairing_matrix(
    roots: Sequence[Sequence[int]], pairings: Sequence[Sequence[int]], symmetrizer: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Rows [a][b] = <b, a^vee> = 2(b,a)/(a,a) of a Cartan matrix: a in `roots`, b over `pairings`.

    pairings[b] lists <b, alpha_i^vee>, and pairings[a] is roots[a]'s own.
    (b,a) = sum_i a_i d_i <b, alpha_i^vee> with d the symmetrizer: one
    weight vector a d per root, one dot product per pair.
    """
    cartan = []
    for a, root in enumerate(roots):
        weights = list(map(mul, root, symmetrizer))
        doubled = [2 * sum(map(mul, weights, p)) for p in pairings]  # 2(b, a) for each b
        norm = doubled[a] // 2
        if any(v % norm for v in doubled):
            raise AssertionError("non-integral Cartan pairing")
        cartan.append(tuple(v // norm for v in doubled))
    return tuple(cartan)


class RootSystem:
    """A (product of) irreducible system(s), held as its positive roots; immutable after construction."""

    def __init__(self, factors: Sequence[TypeSymbol]):
        factors = tuple(sorted(factors))
        n = sum(sym.rank for sym in factors)
        cartan = [[0] * n for _ in range(n)]
        symmetrizer = []
        for sym in factors:
            data = type_data(sym)
            start = len(symmetrizer)
            for i, row in enumerate(data.cartan):
                cartan[start + i][start:start + sym.rank] = row
            symmetrizer += data.symmetrizer
        self.factors = factors
        self.rank = n
        self.cartan = tuple(map(tuple, cartan))
        self.symmetrizer = tuple(symmetrizer)
        positive, pairings, supports = _closure(cartan)
        self.positive_roots = tuple(positive)
        # Each positive root's values on the simple coroots, in the order of positive_roots.
        self.pairings = tuple(pairings)
        # Each positive root's support, bit i set when alpha_i occurs in it, in the same order.
        self.supports = tuple(supports)
        self.root_index = {r: i for i, r in enumerate(self.positive_roots)}
        self.n_positive = len(self.positive_roots)
        expected = sum(self.degrees) - n  # the sum of the exponents
        if self.n_positive != expected:
            raise AssertionError(
                f"closure produced {self.n_positive} positive roots, "
                f"expected {expected} for {format_type(factors)}"
            )

    # -- basic linear data ------------------------------------------------

    def cartan_of(self, indices: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix [a][b] = <b, a^vee> of the roots at `indices` in positive_roots."""
        return _pairing_matrix(
            [self.positive_roots[i] for i in indices], [self.pairings[i] for i in indices], self.symmetrizer
        )

    @cached_property
    def simple_indices(self) -> tuple[int, ...]:
        """Index in positive_roots of each simple root alpha_1..alpha_n."""
        n = self.rank
        return tuple(self.root_index[tuple(int(i == j) for j in range(n))] for i in range(n))

    @cached_property
    def reflection_perms(self) -> tuple[tuple[int, ...], ...]:
        """Each simple reflection s_i as the permutation of the hyperplanes, named by their positive roots.

        s_i beta = beta - <beta, alpha_i^vee> alpha_i is positive for every positive beta but alpha_i
        (Humphreys 1990, Prop. 1.4), the one image with a negative coordinate: -alpha_i names the
        same hyperplane as alpha_i, so s_i fixes it.
        """
        return tuple(
            tuple(
                j if r[i] < p[i] else self.root_index[r[:i] + (r[i] - p[i],) + r[i + 1:]]
                for j, (r, p) in enumerate(zip(self.positive_roots, self.pairings))
            )
            for i in range(self.rank)
        )

    # -- per-factor data ---------------------------------------------------

    @property
    def degrees(self) -> tuple[int, ...]:
        return type_invariants(self.factors).degrees

    def __repr__(self):
        return f"RootSystem({format_type(self.factors)})"


@lru_cache(maxsize=None)
def build(factors: tuple[TypeSymbol, ...]) -> RootSystem:
    """Construct (and cache) the root system of a product of types."""
    # The number of positive roots is the sum of the exponents, the degrees less one.
    work = sum(d - 1 for sym in factors for d in degrees_of(sym)) * sum(sym.rank for sym in factors) ** 2
    errors.require_work(f"root closure of {format_type(factors)}: positive roots x rank^2", work)
    return RootSystem(factors)


def build_str(text: str) -> RootSystem:
    return build(parse_type(text))


def degrees_of(sym: TypeSymbol) -> tuple[int, ...]:
    """Degrees of the basic Weyl-group invariants (standard tables)."""
    n = sym.rank
    fam = sym.family
    if fam == "A":
        return tuple(range(2, n + 2))
    if fam in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if fam == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    if fam == "E":
        return {6: (2, 5, 6, 8, 9, 12),
                7: (2, 6, 8, 10, 12, 14, 18),
                8: (2, 8, 12, 14, 18, 20, 24, 30)}[n]
    if fam == "F":
        return (2, 6, 8, 12)
    return (2, 6)  # G2


class TypeInvariants(NamedTuple):
    weyl_order: int
    degrees: tuple[int, ...]
    exponent_product: int


@lru_cache(maxsize=None)
def type_invariants(factors: tuple[TypeSymbol, ...]) -> TypeInvariants:
    """|W|, degrees and product of exponents for a product of types.

    All three are read off the degree table: |W| is the product of the
    degrees and the exponents are the degrees less one.
    """
    degrees = sorted(d for sym in factors for d in degrees_of(sym))
    return TypeInvariants(
        weyl_order=prod(degrees),
        degrees=tuple(degrees),
        exponent_product=prod(d - 1 for d in degrees),
    )


# -- Dynkin diagrams as Cartan matrices --------------------------------------


class AffineDiagram(NamedTuple):
    """Affine diagram on vertices 0..n: marks, Cartan matrix and symmetrizer of -theta, alpha_1, .., alpha_n.

    A diagram is its Cartan matrix: vertices u and v are joined when
    cartan[u][v] = <alpha_v, alpha_u^vee> is nonzero, and `adjacency` lists
    each vertex's neighbours in that matrix, for the walks over the diagram.
    The symmetrizer, empty for a diagram that is no type's, holds half each
    root's squared length.
    """

    n: int
    marks: tuple[int, ...]
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def vertices(self) -> range:
        return range(self.n + 1)


def _ascend(cartan: Sequence[Sequence[int]], root: list[int]) -> tuple[int, ...]:
    """The dominant root in a positive root's W-orbit: s_j raises the height while <root, alpha_j^vee> < 0.

    The root carries its pairings.  s_j subtracts c times column j of the
    Cartan matrix from them, which moves only the pairing with alpha_j,
    to -c, and those with j's neighbours in the diagram; a worklist holds
    the vertices whose pairing may be negative.
    """
    n = len(cartan)
    pairing = [sum(map(mul, row, root)) for row in cartan]
    neighbours = [[i for i in range(n) if i != j and cartan[i][j]] for j in range(n)]
    todo = [j for j in range(n) if pairing[j] < 0]
    while todo:
        j = todo.pop()
        c = pairing[j]
        if c >= 0:
            continue
        root[j] -= c
        pairing[j] = -c
        for i in neighbours[j]:
            pairing[i] -= c * cartan[i][j]
            if pairing[i] < 0:
                todo.append(i)
    return tuple(root)


def affine_diagram(sym: TypeSymbol) -> AffineDiagram:
    """Extend the Dynkin diagram of an irreducible type by the lowest root -theta.

    theta is the unique dominant long root, and each W-orbit holds exactly
    one dominant element, so the ascent from a long simple root ends at it.
    The extended matrix is the Cartan matrix of (-theta, alpha_1, .., alpha_n),
    whose pairings are -C theta and the columns of C; only the row of -theta
    is new.  The marks (1, theta) are its null vector for any root theta.
    Weighted by the symmetrizer (max(d), d), they are a left null vector only
    when (theta, theta) = 2 max(d), that is when theta is long.
    `type_data` calls this once per type.
    """
    cartan = _cartan_matrix(sym)
    d = _symmetrizer(cartan)
    long = d.index(max(d))
    theta = _ascend(cartan, [int(i == long) for i in range(sym.rank)])
    marks = (1,) + theta
    column = [-sum(map(mul, c, theta)) for c in cartan]
    (row,) = _pairing_matrix([tuple(-t for t in theta)], [column, *zip(*cartan)], d)
    extended = (row,) + tuple((a, *c) for a, c in zip(column, cartan))
    symmetrizer = (max(d), *d)
    weighted = list(map(mul, symmetrizer, marks))
    if any(sum(map(mul, weighted, col)) for col in zip(*extended)):
        raise AssertionError(f"the marks of {sym} are not a left null vector of its symmetrized affine Cartan matrix")
    adjacency = tuple(tuple(w for w, x in enumerate(row) if x and w != v) for v, row in enumerate(extended))
    return AffineDiagram(n=sym.rank, marks=marks, cartan=extended, symmetrizer=symmetrizer, adjacency=adjacency)


def classify_dynkin(cartan: Sequence[Sequence[int]]) -> tuple[TypeSymbol, ...]:
    """Identify a Cartan matrix as a product of irreducible types.

    Its rows are the vertices of the diagram; i and j are joined when
    c[i][j] is nonzero.
    """
    k = len(cartan)
    return _classify_diagram([[j for j in range(k) if j != i and cartan[i][j]] for i in range(k)], cartan)


def _classify_diagram(
    adj: Sequence[Sequence[int]], cartan: Sequence[Sequence[int]], deleted: Optional[int] = None
) -> tuple[TypeSymbol, ...]:
    """Types of the components of the diagram with adjacency lists `adj`, less the vertex `deleted`.

    A component is a finite Dynkin diagram when it is a tree: a chain of
    simple bonds (A), one branch point with arms (1, 1, m) (D) or
    (1, 2, 2..4) (E), or a chain with one multiple bond (B, C, F4, G2).
    A vertex's degree is its adjacency list's length less the deleted vertex.
    """
    seen = [False] * len(adj)
    if deleted is not None:
        seen[deleted] = True
    out = []
    for v in range(len(adj)):
        if seen[v]:
            continue
        seen[v] = True
        comp, degree, multi = [v], [], []  # multi: the bonds (x, y), x < y, that are not simple
        for x in comp:
            row = cartan[x]
            edges = 0
            for y in adj[x]:
                if y == deleted:
                    continue
                edges += 1
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                if x < y and row[y] * cartan[y][x] != 1:
                    multi.append((x, y))
            degree.append(edges)
        k = len(comp)
        if k == 1:
            out.append(_symbol("A", 1))
            continue
        if sum(degree) != 2 * (k - 1):
            raise ValueError("graph is not a tree: not a finite Dynkin diagram")
        top = max(degree)
        if not multi:
            if top <= 2:
                out.append(_symbol("A", k))
                continue
            if top > 3 or degree.count(3) != 1:
                raise ValueError("not a finite Dynkin diagram")
            b = comp[degree.index(3)]
            arms = []
            for w in adj[b]:
                if w == deleted:
                    continue
                length, prev, cur = 1, b, w
                while len(adj[cur]) - (deleted in adj[cur]) == 2:
                    prev, cur = cur, next(x for x in adj[cur] if x != prev and x != deleted)
                    length += 1
                arms.append(length)
            arms.sort()
            if arms[:2] == [1, 1]:
                out.append(_symbol("D", k))
            elif arms[:2] == [1, 2] and 2 <= arms[2] <= 4:
                out.append(_symbol("E", arms[2] + 4))
            else:
                raise ValueError("not a finite Dynkin diagram")
            continue
        if len(multi) != 1 or top > 2:
            raise ValueError("not a finite Dynkin diagram")
        ((x, y),) = multi
        bond = (-cartan[y][x], -cartan[x][y])  # (|<alpha_x, alpha_y^vee>|, |<alpha_y, alpha_x^vee>|)
        if sorted(bond) == [1, 3]:
            if k != 2:
                raise ValueError("triple bond only occurs in G2")
            out.append(_symbol("G", 2))
        elif sorted(bond) != [1, 2]:
            raise ValueError(f"unrecognized bond {bond}")
        elif k == 2:
            out.append(_symbol("B", 2))  # canonical alias of C2
        else:
            # Chain with one double bond: B/C when at an end, F4 in the middle.
            ends = [z for z, e in zip(comp, degree) if e == 1]
            if x not in ends and y not in ends:
                if k != 4:
                    raise ValueError("interior double bond only occurs in F4")
                out.append(_symbol("F", 4))
                continue
            end, other = (x, y) if x in ends else (y, x)
            # <alpha_end, alpha_other^vee> = -2 means the end root is the long one.
            out.append(_symbol("C" if cartan[other][end] == -2 else "B", k))
    return tuple(sorted(out))


def diagram_automorphisms(
    diagram: AffineDiagram,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """All vertex permutations preserving the marks and the Cartan matrix, plus their orbits Q.

    The affine diagram is connected, so the vertices are placed in breadth-first
    order from vertex 0, each later one onto a neighbour of its parent's image.
    Only the edges to placed vertices are checked: an injective map that sends
    every edge to an equal edge, between vertices of equal degree, sends every
    non-edge to a non-edge too.  The search keeps one candidate iterator per
    placed vertex on a stack, so its depth is not bounded by Python's recursion.
    """
    verts = diagram.vertices
    c, adj = diagram.cartan, diagram.adjacency
    invariant = [
        (diagram.marks[v], sorted((c[v][w], c[w][v], diagram.marks[w]) for w in adj[v])) for v in verts
    ]
    order, parent = [0], {0: 0}
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    position = {v: i for i, v in enumerate(order)}
    # Step i places v = order[i] next to its parent; its edges to earlier vertices are (u, c[v][u], c[u][v]).
    steps = [
        (v, parent[v], [(u, c[v][u], c[u][v]) for u in adj[v] if position[u] < i]) for i, v in enumerate(order)
    ]
    autos = []
    image = [-1] * len(verts)
    used = [False] * len(verts)
    candidates = [iter(verts)]
    while candidates:
        v, _, earlier = steps[len(candidates) - 1]
        if image[v] >= 0:  # back at this step: free the last image tried
            used[image[v]] = False
        key = invariant[v]
        for w in candidates[-1]:
            if used[w] or invariant[w] != key:
                continue
            cw = c[w]
            for u, vu, uv in earlier:
                x = image[u]
                if cw[x] != vu or c[x][w] != uv:
                    break
            else:
                image[v], used[w] = w, True
                break
        else:
            image[v] = -1
            candidates.pop()
            continue
        if len(candidates) == len(steps):
            autos.append(tuple(image))
        else:
            candidates.append(iter(adj[image[steps[len(candidates)][1]]]))
    seen = set()
    orbits = []
    for v in verts:
        if v in seen:
            continue
        orb = sorted({a[v] for a in autos})
        orbits.append(tuple(orb))
        seen.update(orb)
    return tuple(sorted(autos)), tuple(orbits)


# -- one record per irreducible type ------------------------------------------


class TypeData(NamedTuple):
    """The record of an irreducible type; its `cartan` and `symmetrizer` are its diagram's less vertex 0."""

    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    diagram: AffineDiagram
    vertices: tuple[tuple[int, tuple[TypeSymbol, ...], int, int], ...]  # (p, type, |W_p|, |W|/|W_p|)


@lru_cache(maxsize=None)
def type_data(sym: TypeSymbol) -> TypeData:
    """Cartan matrix, symmetrizer, affine diagram and, per affine vertex p, the type left by deleting p.

    Each deletion walks the components left on the diagram's adjacency
    lists, O(n) per vertex.
    """
    diagram = affine_diagram(sym)
    w_order = type_invariants((sym,)).weyl_order
    vertices = []
    for p in diagram.vertices:
        ptype = _classify_diagram(diagram.adjacency, diagram.cartan, p)
        wp = type_invariants(ptype).weyl_order
        if w_order % wp:
            raise AssertionError("parabolic order does not divide |W|")
        vertices.append((p, ptype, wp, w_order // wp))
    return TypeData(
        cartan=tuple(row[1:] for row in diagram.cartan[1:]),
        symmetrizer=diagram.symmetrizer[1:],
        diagram=diagram,
        vertices=tuple(vertices),
    )


class Center(NamedTuple):
    order: int  # |Z|, the index of the coroot lattice in the coweight lattice
    exponent: int  # the least e with e Z^n inside the coroot lattice


@lru_cache(maxsize=None)
def center(sym: TypeSymbol) -> Center:
    """|Z| and exp Z of an irreducible type, from one Hermite normal form of its Cartan matrix.

    Z is Z^n modulo the row lattice of the Cartan matrix: |Z| is the product
    of the HNF pivots, and exp Z, which divides it, the least e that takes
    every unit vector into the lattice.
    """
    basis = intlat.hermite_normal_form(type_data(sym).cartan)
    order = prod(row[i] for i, row in enumerate(basis))
    units = [[int(i == j) for j in range(sym.rank)] for i in range(sym.rank)]
    exponent = next(
        e for e in range(1, order + 1)
        if not any(any(intlat.residue(basis, [e * x for x in u])) for u in units)
    )
    return Center(order, exponent)


def center_order(factors: tuple[TypeSymbol, ...]) -> int:
    """|Z| of a product of types, the product of its factors' orders."""
    return prod(center(sym).order for sym in factors)
