"""Constructive embeddings between full semigroups.

Each construction returns a SemigroupMap, which is its arrow table: each
domain arrow to the arrows of its image, the image of a bisection being
the union of the images of its arrows. Building a SemigroupMap checks
its table once, on its keys and its image arrows (image_hits,
table_collision), however the table was made; arrow_map tabulates one,
and SemigroupMap.packed scatters it on packed codes for the
certificates (see verify), a ladder's distortion report being the
certificate of its map. At this finite scale every construction is
exact, not approximate.

The connected and convex embeddings and the ladder maps [[n]] -> [[p]]
(step_map, general_map) are all copies of one connected-piece embedding,
(h, y_from) -> (g*h, y_to), placed in a full relation by _copies. The
pair embedding relabels two tables, the corner restriction filters one,
and the finite-index lift reads its table off the transversal block of
each arrow (TransversalSystem.blocks). The block matrix of an element
has one representation, its code in G x [[n]], n the index: block_codes
scatters the blocks there with _scatter, as SemigroupMap.packed scatters
a table, each block arrow b of block (i, j) placed as b x E_{i,j}, as the
lift places it in H x [[n]]. So the suite's block checks are two
inverses of codes per element (checked_block_code), its block identity
one product of codes per pair, and its diagonal trace a mass of fixed
units per copy.

Maps combine as tables: tensor(m1, m2) sends the product arrow (a, b) to
the rectangle T1(a) x T2(b), and compose(m2, m1) sends a to the images
under m2 of the arrows of T1(a); both tables are checked like any
other. A map phi of the subgroupoid lifts to a finite-index extension as
compose(tensor(phi, identity_map(full_relation(index))), lift).

The rectangle monoid of a product groupoid runs on packed codes too:
PackedProduct pairs the codes of the two factors into codes of the
product, and rectangle_decompose splits a product code into a
RectangleUnion of factor codes. Nothing here computes with Bisections,
and building or scattering a table builds none: they are the boundary
type that maps accept and return, built only for the transversals of
find_transversals, by SemigroupMap.__call__, for the cells that
block_components returns, and elsewhere for decoded witnesses and by
extend_to_full_group.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from itertools import product as iproduct
from math import lcm, prod
from operator import getitem
from typing import Callable

from .groupoid import (
    Arrow,
    Component,
    FiniteGroupoid,
    ProductStructure,
    Value,
    _assemble,
    corner,
    convex_combination_with_maps,
    full_relation,
    product_groupoid,
    subgroupoid_as_groupoid,
    subgroupoid_violations,
)
from .semigroup import Bisection, CertificateError, PackedMonoid


class NoTransversalError(RuntimeError):
    """Raised with an explanation when no transversal system exists."""


class SemigroupMap:
    """A map [[domain]] -> [[codomain]] given by its arrow table, from each
    domain arrow to the arrows of its image in the codomain. Two maps are
    equal only when they are one object.

    Building one checks the table, and raises a ValueError naming the
    first defect. Its keys must be exactly the domain's arrows. Each image
    arrow must be an arrow of the codomain. Two image arrows with one
    source (or range) collide when they come from one entry, or from two
    domain arrows that can share a bisection (distinct sources and
    distinct ranges), and raise the ValueError a Bisection of their union
    would; table_collision finds them in time linear in the image arrows.
    So every union is a bisection, and packed takes unions unchecked. The
    image_hits the check reads are kept as hits, for the certificate.
    """

    def __init__(self, domain: FiniteGroupoid, codomain: FiniteGroupoid, label: str, arrow_images: dict):
        for a in arrow_images:
            if not domain.has_arrow(a):
                raise ValueError(f"table key {a} not an arrow of the domain")
        if len(arrow_images) != domain.n_arrows:
            missing = next(a for a in domain.arrows() if a not in arrow_images)
            raise ValueError(f"domain arrow {missing} has no image in the table")
        for image in arrow_images.values():
            for b in image:
                if not codomain.has_arrow(b):
                    raise ValueError(f"arrow {b} not in the groupoid")
        self.hits = image_hits(arrow_images)
        side = table_collision(self.hits)
        if side is not None:
            raise ValueError(f"{side} map not injective")
        self.domain, self.codomain, self.label, self.arrow_images = domain, codomain, label, arrow_images

    def __call__(self, alpha: Bisection) -> Bisection:
        """The union of the images of alpha's arrows, as one Bisection."""
        if alpha.groupoid != self.domain:
            raise ValueError("bisection not in the domain of this map")
        return Bisection(self.codomain, tuple(b for a in alpha.arrows for b in self.arrow_images[a]))

    def packed(self, dom: PackedMonoid, cod: PackedMonoid) -> Callable:
        """The map on packed codes, a code of dom to a code of cod: the
        _scatter of the table placed on cod, each domain arrow writing the
        (source unit, code) pieces of its image, which the constructor has
        checked never meet within an element. It builds no Bisection (see
        the module docstring for where one is built)."""
        if dom.groupoid != self.domain or cod.groupoid != self.codomain:
            raise ValueError(f"packed kernels do not match the groupoids of {self.label}")
        place = cod.place
        return _scatter(dom, {a: tuple(map(place, image)) for a, image in self.arrow_images.items()}, cod.n_units)


def _scatter(pm: PackedMonoid, pieces: dict, size: int) -> Callable:
    """A code of pm to the size entries its arrows write, -1 where none
    does: pieces sends each arrow of pm's groupoid to its (position, code)
    pairs, kept in one row per (source unit, code). The caller has checked
    that two arrows of one element never write one position."""
    rows = [[()] * (pm.n_units * pm.order) for _ in pm.units]
    for a, piece in pieces.items():
        u, x = pm.place(a)
        rows[u][x] = piece

    def scatter(x) -> tuple[int, ...]:
        out = [-1] * size
        for row, code in zip(rows, x):
            if code >= 0:
                for k, c in row[code]:
                    out[k] = c
        return tuple(out)

    return scatter


def arrow_map(
    domain: FiniteGroupoid,
    codomain: FiniteGroupoid,
    image_of_arrow: Callable[[Arrow], object],
    label: str,
) -> SemigroupMap:
    """The map sending a bisection to the union of its arrows' images:
    image_of_arrow tabulated once over domain.arrows(), each entry kept as
    its sorted arrows. SemigroupMap checks the table, building no
    Bisection (see the module docstring for where one is built)."""
    return SemigroupMap(domain, codomain, label, {a: tuple(sorted(image_of_arrow(a))) for a in domain.arrows()})


def image_hits(table: dict) -> tuple[dict, dict]:
    """For each codomain unit, the domain arrows of an arrow table whose
    images have an arrow with that source (the first dict) or that range
    (the second), one per such image arrow, in table order."""
    sources, ranges = {}, {}
    for a, image in table.items():
        for b in image:
            sources.setdefault((b.comp, b.y_from), []).append(a)
            ranges.setdefault((b.comp, b.y_to), []).append(a)
    return sources, ranges


def table_collision(hits: tuple[dict, dict]) -> str | None:
    """The side of the first collision in the image_hits of a table, or
    None: "source" (checked first) when the images of two domain arrows
    that can share a bisection both have an arrow with one source, or one
    entry has two, and "range" likewise.

    A unit's list has such a pair exactly when it repeats an arrow, or
    its arrows neither all share the first one's source nor all share its
    range: with a first arrow f, an arrow s of another source and an arrow
    r of another range, one of (f, s), (f, r) and (s, r) differs in both.
    So each list is read in linear time, and the same units fail as under
    a check of every pair."""
    for side, by_unit in zip(("source", "range"), hits):
        for arrows in by_unit.values():
            if len(set(arrows)) < len(arrows):
                return side
            source, range_ = (arrows[0].comp, arrows[0].y_from), (arrows[0].comp, arrows[0].y_to)
            if any((a.comp, a.y_from) != source for a in arrows) and any((a.comp, a.y_to) != range_ for a in arrows):
                return side
    return None


def identity_map(g: FiniteGroupoid) -> SemigroupMap:
    return arrow_map(g, g, lambda a: (a,), "identity")


def tensor(m1: SemigroupMap, m2: SemigroupMap) -> SemigroupMap:
    """m1 x m2 on the product of the domains: the arrow (a, b) to the
    rectangle T1(a) x T2(b) in the product of the codomains."""
    dom = product_groupoid(m1.domain, m2.domain)
    cod = product_groupoid(m1.codomain, m2.codomain)
    t1, t2 = m1.arrow_images, m2.arrow_images

    def image(c: Arrow):
        a, b = dom.split_arrow(c)
        return [cod.pair_arrow(x, y) for x in t1[a] for y in t2[b]]

    return arrow_map(dom.groupoid, cod.groupoid, image, f"{m1.label} x {m2.label}")


def compose(m2: SemigroupMap, m1: SemigroupMap) -> SemigroupMap:
    """m2 after m1: each arrow to the images under m2 of its image arrows
    under m1."""
    if m1.codomain != m2.domain:
        raise ValueError(f"{m2.label} is not defined on the codomain of {m1.label}")
    t1, t2 = m1.arrow_images, m2.arrow_images
    return arrow_map(m1.domain, m2.codomain, lambda a: [c for b in t1[a] for c in t2[b]], f"{m2.label} o {m1.label}")


def _copies(g: FiniteGroupoid, points: int, layout, label: str) -> SemigroupMap:
    """The arrow map [[g]] -> [[points]] made of copies of the connected-
    piece embedding, (h, y_from) -> (gr*h, y_to) on the points y*m + h.

    layout[i] = (stride, offsets) places component i, of group order m and
    Cayley table t: its arrow (gr, y_to, y_from) goes to the arrows
    o + (y_to*m + t[gr][h])*stride <- o + (y_from*m + h)*stride, for h < m
    and for each offset o.
    """

    def image(a: Arrow):
        comp = g.components[a.comp]
        m, row = comp.group_order, comp.table[a.g]
        stride, offsets = layout[a.comp]
        return [
            Arrow(0, 0, o + (a.y_to * m + row[h]) * stride, o + (a.y_from * m + h) * stride)
            for o in offsets
            for h in range(m)
        ]

    return arrow_map(g, full_relation(points), image, label)


# ---------------------------------------------------------------------------
# Connected pieces: [[Gamma x Y^2]] -> [[(Gamma x Y)^2]]


def embed_connected(g: FiniteGroupoid) -> SemigroupMap:
    """Isometric embedding of a connected groupoid's semigroup into partial
    injections on the set Gamma x Y.

    The arrow (gr, y_to, y_from) becomes the partial injection defined on
    Gamma x {y_from} sending (h, y_from) to (gr*h, y_to); points are indexed
    y*|Gamma| + h. It is the single copy of _copies.
    """
    if len(g.components) != 1:
        raise ValueError("embed_connected needs a connected groupoid")
    comp = g.components[0]
    m, k = comp.group_order, comp.base_size
    return _copies(g, m * k, [(1, [0])], f"connected[{m}x{k}^2]")


# ---------------------------------------------------------------------------
# Convex combinations: blocks of [q], each a mixed-radix product of stages


def embed_convex(g: FiniteGroupoid) -> SemigroupMap:
    """Isometric embedding of a weighted multi-component groupoid.

    With q the lcm of the weight denominators, the codomain is q index
    blocks of P points, P the product of the stage sizes m_i*k_i; a point
    j*P + r of block j has mixed-radix coordinates r = sum x_i*stride_i,
    stride_i = prod(sizes[i+1:]). Component i owns t_i*q of the blocks. On
    its blocks the map is embed_connected of the component on coordinate i
    and the identity on the others: one copy at each point of those blocks
    whose coordinate i is 0, with stride stride_i.
    """
    sizes = [c.group_order * c.base_size for c in g.components]
    q = lcm(*(c.weight.denominator for c in g.components))
    block = prod(sizes)
    layout = []
    start = 0
    for i, c in enumerate(g.components):
        stride, end = prod(sizes[i + 1 :]), start + int(c.weight * q)
        layout.append((stride, [o for o in range(start * block, end * block) if o // stride % sizes[i] == 0]))
        start = end
    return _copies(g, q * block, layout, f"convex[q={q}]")


def _aligned_components(a: FiniteGroupoid, b: FiniteGroupoid):
    """Match components of two groupoids that differ only in weights."""
    key = lambda c: (c.group_order, c.base_size, c.table)
    ia = sorted(range(len(a.components)), key=lambda i: key(a.components[i]))
    ib = sorted(range(len(b.components)), key=lambda i: key(b.components[i]))
    if len(ia) != len(ib):
        raise ValueError("incompatible domains: different component counts")
    for x, y in zip(ia, ib):
        if key(a.components[x]) != key(b.components[y]):
            raise ValueError("incompatible domains: component shapes differ")
    return ia, ib


def embed_convex_pair(
    phi_nu: SemigroupMap, phi_rho: SemigroupMap, t: Fraction
) -> SemigroupMap:
    """Combine embeddings of one groupoid carried with two measures.

    The domains must agree up to component weights; the blended domain takes
    weights t*nu + (1-t)*rho, the codomain is the (t, 1-t) convex combination
    of the two codomains, and the image is the union of both images there:
    the blend relabels the two tables.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    gn, gr = phi_nu.domain, phi_rho.domain
    order_n, order_r = _aligned_components(gn, gr)
    if t == 1:
        return phi_nu
    if t == 0:
        return phi_rho
    blended = []
    for x, y in zip(order_n, order_r):
        cn, crho = gn.components[x], gr.components[y]
        blended.append(
            Component(cn.table, cn.base_size, t * cn.weight + (1 - t) * crho.weight)
        )
    domain, position = _assemble(blended)
    to_nu = {position[k]: order_n[k] for k in range(len(blended))}
    to_rho = {position[k]: order_r[k] for k in range(len(blended))}

    codomain, (map_nu, map_rho) = convex_combination_with_maps(
        [(t, phi_nu.codomain), (1 - t, phi_rho.codomain)]
    )
    nu_images, rho_images = phi_nu.arrow_images, phi_rho.arrow_images

    def image(a: Arrow):
        out = [b._replace(comp=map_nu[b.comp]) for b in nu_images[a._replace(comp=to_nu[a.comp])]]
        out += [b._replace(comp=map_rho[b.comp]) for b in rho_images[a._replace(comp=to_rho[a.comp])]]
        return out

    return arrow_map(domain, codomain, image, f"pair[t={t}]")


# ---------------------------------------------------------------------------
# Corner restriction of a map


def restrict_almost_morphism(theta: SemigroupMap, units) -> SemigroupMap:
    """Restrict a map to the corner over a unit subset.

    The restricted map sends a corner bisection to e*theta(lift)*e with
    e = theta(1_corner), landing in the corner of the codomain over the
    units of e; both corners carry normalized measures. e is read off the
    table, as the images of the corner's unit arrows. Sandwiching by e
    keeps the arrows with both ends in fix(e), arrow by arrow, so the
    restriction is again an arrow map: each entry of theta's table,
    filtered and moved into the corner.
    """
    h = corner(theta.domain, units)
    e = [b for u in h.units for b in theta.arrow_images[theta.domain.unit_arrow(u)]]
    if not all(b.is_unit() for b in e):
        raise ValueError("theta(1_H) is not idempotent; cannot restrict")
    fixed = frozenset(b.source for b in e)
    if theta.codomain.mass(fixed) == 0:
        raise ValueError("zero-trace corner: theta(1_H) is null")
    f = corner(theta.codomain, fixed)

    def image(a: Arrow):
        kept = [f.to_corner(b) for b in theta.arrow_images[h.from_corner(a)] if b.source in fixed and b.range in fixed]
        if None in kept:
            raise CertificateError("sandwiched image escaped the codomain corner")
        return kept

    return arrow_map(h.groupoid, f.groupoid, image, f"corner.{theta.label}")


# ---------------------------------------------------------------------------
# Finite index: transversals, block matrices and the lift


class TransversalSystem(Value):
    """Full-group elements whose translates of a unit-full subgroupoid
    partition the ambient groupoid."""

    _fields = ("groupoid", "sub_arrows", "transversals")

    def __init__(self, groupoid: FiniteGroupoid, sub_arrows: frozenset, transversals: tuple):
        self._set(groupoid, sub_arrows, transversals)

    @property
    def index(self) -> int:
        return len(self.transversals)

    @cached_property
    def blocks(self) -> dict:
        """Each arrow a of the groupoid -> the (i, j, b) with b the one arrow
        of psi_i^-1 a psi_j, for each (i, j) where it lies in H."""
        g = self.groupoid
        into = [{p.range: p for p in psi.arrows} for psi in self.transversals]
        out = {}
        for a in g.arrows():
            row = []
            for i, left in enumerate(into):
                p = left.get(a.range)
                for j, right in enumerate(into):
                    q = right.get(a.source)
                    if p is not None and q is not None:
                        b = g.mul(g.mul(g.inv(p), a), q)
                        if b in self.sub_arrows:
                            row.append((i, j, b))
            out[a] = row
        return out

    def violations(self) -> list[str]:
        g = self.groupoid
        problems = _unit_full_violations(g, self.sub_arrows)
        if problems:
            return problems
        for i, psi in enumerate(self.transversals):
            # sources and ranges are injective, so n arrows cover every unit
            if len(psi) != g.n_units:
                problems.append(f"transversal {i} is not a full-group element")
        seen = set()
        for i, psi in enumerate(self.transversals):
            block = _translate(g, psi.arrows, self.sub_arrows)
            if seen & block:
                problems.append(f"translate {i} overlaps an earlier one")
            seen |= block
        if seen != set(g.arrows()):
            problems.append("translates do not cover the groupoid")
        return problems


def _unit_full_violations(g: FiniteGroupoid, sub_arrows) -> list[str]:
    """Why sub_arrows is not a subgroupoid of g that contains every unit."""
    problems = subgroupoid_violations(g, sub_arrows)
    missing = sorted(set(g.units()) - {a.source for a in sub_arrows if a.is_unit()})
    if missing:
        problems.append(f"no unit arrow at unit {missing[0]}")
    return problems


def _translate(g: FiniteGroupoid, arrows, sub_arrows) -> frozenset:
    """The translate of H = sub_arrows by the given arrows: every defined
    product a*h with a among them and h in H."""
    return frozenset(ah for a in arrows for h in sub_arrows if (ah := g.mul(a, h)) is not None)


def unit_subgroupoid(g: FiniteGroupoid) -> frozenset:
    return frozenset(g.unit_arrow(u) for u in g.units())


def group_subgroupoid(g: FiniteGroupoid, elements) -> frozenset:
    """Arrow set of a subgroup of a one-unit group groupoid."""
    if len(g.components) != 1 or g.components[0].base_size != 1:
        raise ValueError("group_subgroupoid needs a one-unit group groupoid")
    return frozenset(Arrow(0, e, 0, 0) for e in elements)


def find_transversals(g: FiniteGroupoid, sub_arrows) -> TransversalSystem:
    """Backtracking search for left transversals of a unit-full subgroupoid.

    Arrows fall into left translate classes a*H, each class sitting over a
    single range unit; a system exists iff the classes can be arranged into
    rows picking one class per range unit with representative sources forming
    a bijection on units. Classes and sources are tried lowest-first, so the
    result is deterministic.
    """
    sub_arrows = frozenset(sub_arrows)
    problems = _unit_full_violations(g, sub_arrows)
    if problems:
        raise ValueError(f"not a unit-full subgroupoid: {problems[0]}")
    units = sorted(g.units())

    coset_of = {}
    cosets = []
    for a in sorted(g.arrows()):
        if a in coset_of:
            continue
        block = _translate(g, (a,), sub_arrows)
        idx = len(cosets)
        cosets.append(block)
        for b in block:
            coset_of[b] = idx

    pools = {u: [] for u in units}
    for idx, block in enumerate(cosets):
        pools[min(block).range].append(idx)
    sizes = {u: len(pool) for u, pool in pools.items()}
    n = sizes[units[0]]
    if any(s != n for s in sizes.values()):
        raise NoTransversalError(
            f"left translate counts per unit differ ({sizes}); no partition exists"
        )

    positions = [(i, u) for i in range(n) for u in units]
    used_cosets: set[int] = set()
    row_sources: list[set] = [set() for _ in range(n)]
    chosen: list[Arrow | None] = [None] * len(positions)

    def candidates(k: int):
        i, u = positions[k]
        for ci in pools[u]:
            if ci in used_cosets:
                continue
            by_source = {}
            for a in sorted(cosets[ci]):
                by_source.setdefault(a.source, a)
            for source, rep in sorted(by_source.items()):
                if source not in row_sources[i]:
                    yield ci, source, rep

    def search(k: int) -> bool:
        if k == len(positions):
            return True
        i, _ = positions[k]
        for ci, source, rep in candidates(k):
            used_cosets.add(ci)
            row_sources[i].add(source)
            chosen[k] = rep
            if search(k + 1):
                return True
            used_cosets.discard(ci)
            row_sources[i].discard(source)
            chosen[k] = None
        return False

    if not search(0):
        raise NoTransversalError(
            f"no partition into {n} full-group translates exists"
        )

    transversals = []
    per_row = len(units)
    for i in range(n):
        arrows = chosen[i * per_row : (i + 1) * per_row]
        transversals.append(Bisection(g, tuple(arrows)))
    system = TransversalSystem(g, sub_arrows, tuple(transversals))
    problems = system.violations()
    if problems:
        raise CertificateError(f"transversal search returned an invalid system: {problems[0]}")
    return system


def block_codes(system: TransversalSystem, pm: PackedMonoid):
    """The kernel of G x [[n]] (G = system.groupoid, n = system.index) and a
    function from a code of pm = PackedMonoid(G) to the code there of its
    block matrix, or None: the _scatter of system.blocks, the arrow b of
    block (i, j) written as b x E_{i,j} (ProductStructure.pair_arrow), as
    finite_index_map places it in H x [[n]]. Two block arrows of one
    column at one unit write one entry, and then the matrix has no code:
    fewer entries are defined than were written.

    So two matrices with codes are equal exactly when their codes are,
    and the product of two codes is the code of the block product,
    (AB)_{i,l} the union over j of A_{i,j} B_{j,l}: a unit of column l
    meets one block B_{j,l}, its image one block A_{i,j}.
    """
    g, n = system.groupoid, system.index
    if pm.groupoid != g:
        raise ValueError("groupoid not that of the transversal system")
    ps = product_groupoid(g, full_relation(n))
    kernel = PackedMonoid(ps.groupoid)
    pieces = {
        a: tuple(kernel.place(ps.pair_arrow(b, Arrow(0, 0, i, j))) for i, j, b in row)
        for a, row in system.blocks.items()
    }
    scatter = _scatter(pm, pieces, kernel.n_units)
    # written[u][x]: the pieces of the arrow of code x at u; [-1] is 0
    written = [[0] * (pm.n_units * pm.order + 1) for _ in pm.units]
    for a, piece in pieces.items():
        u, x = pm.place(a)
        written[u][x] = len(piece)

    def code(x) -> tuple[int, ...] | None:
        out = scatter(x)
        return out if out.count(-1) + sum(map(getitem, written, x)) == kernel.n_units else None

    return kernel, code


def checked_block_code(kernel: PackedMonoid, code, pm: PackedMonoid, x):
    """The code of x's block matrix (block_codes) when the lift is
    well-defined on it, else None: x and x^-1 must have codes, and the two
    must be mutually inverse. A code has disjoint block sources in each
    column; mutually inverse codes are bisections, so each row's block
    ranges are disjoint too; and an arrow of G x [[n]] carries its cell
    (i, j) in its range and source copies, so they are inverse exactly when
    the exchange law alpha_{i,j}^-1 = (alpha^-1)_{j,i} holds cell by cell."""
    c, d = code(x), code(pm.inv(x))
    return c if c is not None and kernel.inv(c) == d and kernel.inv(d) == c else None


def _cells(system: TransversalSystem, arrows) -> list:
    """The n x n cells of the block arrows of the given arrows."""
    cells = [[[] for _ in range(system.index)] for _ in range(system.index)]
    for a in arrows:
        for i, j, b in system.blocks[a]:
            cells[i][j].append(b)
    return cells


def _block_failures(g: FiniteGroupoid, cells: list, co_cells: list):
    """Each failed check of the cells of alpha and co_cells of alpha^-1, in
    order: the exchange law, then disjoint sources in each column, then
    disjoint ranges in each row."""
    n = len(cells)
    pairs = list(iproduct(range(n), repeat=2))
    for i, j in pairs:
        if set(map(g.inv, cells[i][j])) != set(co_cells[j][i]):
            yield f"block exchange law fails at ({i},{j})"
    for (j, i), k in iproduct(pairs, range(n)):
        if i < k and {b.source for b in cells[i][j]} & {b.source for b in cells[k][j]}:
            yield f"column {j}: blocks {i} and {k} share a source"
    for (i, j), l in iproduct(pairs, range(n)):
        if j < l and {b.range for b in cells[i][j]} & {b.range for b in cells[i][l]}:
            yield f"row {i}: blocks {j} and {l} share a range"


def block_components(alpha: Bisection, system: TransversalSystem):
    """The transversal block matrix alpha_{i,j} = psi_i^-1 alpha psi_j cap H
    as rows of Bisections, its cells read off system.blocks. When
    checked_block_code fails alpha, it raises CertificateError naming the
    first failing cell."""
    g, pm = system.groupoid, PackedMonoid(alpha.groupoid)
    kernel, code = block_codes(system, pm)
    cells = _cells(system, alpha.arrows)
    if checked_block_code(kernel, code, pm, pm.encode(alpha)) is None:
        raise CertificateError(next(_block_failures(g, cells, _cells(system, map(g.inv, alpha.arrows)))))
    return [[Bisection(g, tuple(cell)) for cell in row] for row in cells]


def finite_index_map(system: TransversalSystem) -> SemigroupMap:
    """The lift Xi(alpha) = union over (i,j) of alpha_{i,j} x E_{i,j}.

    The lift's table pairs, for each arrow, its block arrow at each (i, j),
    of which there is one or none, with the matrix unit E_{i,j}. A source
    or range collision in a table entry, or between the entries of two
    arrows that can share a bisection, means the transversal system is
    invalid; building the lift then raises NoTransversalError. The lift of
    a map phi of the subgroupoid is
    compose(tensor(phi, identity_map(full_relation(system.index))), lift).
    """
    g = system.groupoid
    dec, raw_ids = subgroupoid_as_groupoid(g, system.sub_arrows)
    ps = product_groupoid(dec.groupoid, full_relation(system.index))

    def image(a: Arrow):
        return [ps.pair_arrow(dec.iso[raw_ids[b]], Arrow(0, 0, i, j)) for i, j, b in system.blocks[a]]

    try:
        return arrow_map(g, ps.groupoid, image, f"index[{system.index}].identity")
    except ValueError as exc:
        raise NoTransversalError(f"lift not well-defined: {exc}") from exc


# ---------------------------------------------------------------------------
# Products: the rectangle monoid


class PackedProduct:
    """A product groupoid on packed codes: pm is the kernel of the product,
    left and right those of its factors.

    Every pair of factor arrows is one product arrow, so the pairing is a
    table of pieces, a piece being the (source index, code) of one arrow:
    pair[left piece, right piece] is the product piece and split[w][z]
    the two factor pieces of the product piece (w, z).
    """

    def __init__(self, ps: ProductStructure):
        self.structure = ps
        self.pm = PackedMonoid(ps.groupoid)
        self.left, self.right = PackedMonoid(ps.left), PackedMonoid(ps.right)
        self.pair = {}
        self.split = [[None] * (self.pm.n_units * self.pm.order) for _ in self.pm.units]
        for a in ps.left.arrows():
            for b in ps.right.arrows():
                pieces = self.left.place(a), self.right.place(b)
                w, z = self.pm.place(ps.pair_arrow(a, b))
                self.pair[pieces] = w, z
                self.split[w][z] = pieces

    def assemble(self, parts) -> tuple[int, ...]:
        """The union of the rectangles a x b over (left code, right code)
        parts, as one product code; a later part overwrites an earlier one
        where their sources meet."""
        out = list(self.pm.zero)
        pair = self.pair
        for a, b in parts:
            rights = [(v, y) for v, y in enumerate(b) if y >= 0]
            for u, x in enumerate(a):
                if x >= 0:
                    for piece in rights:
                        w, z = pair[(u, x), piece]
                        out[w] = z
        return tuple(out)

    def rectangle(self, a, b) -> tuple[int, ...]:
        """The rectangle a x b of a left code and a right code."""
        return self.assemble(((a, b),))


class RectangleUnion(Value):
    """A union of rectangles A x B, each given as its pair of factor codes
    of a PackedProduct, in the rectangle monoid of the product: no two parts
    overlap on a source or on a range. Building one checks that once, as
    meets of the factors' src and rng bitmasks, and raises CertificateError
    on the first overlap."""

    _fields = ("product", "parts")

    def __init__(self, product: PackedProduct, parts: tuple):
        self._set(product, parts)  # parts: (left code, right code) pairs
        problems = self.violations()
        if problems:
            raise CertificateError(f"not in the rectangle monoid: {problems[0]}")

    def violations(self) -> list[str]:
        left, right = self.product.left, self.product.right
        masks = [(left.src(a), right.src(b), left.rng(a), right.rng(b)) for a, b in self.parts]
        problems = []
        for (i, (sa, sb, ra, rb)), (j, (sa2, sb2, ra2, rb2)) in combinations(enumerate(masks), 2):
            if sa & sa2 and sb & sb2:
                problems.append(f"source rectangles {i} and {j} overlap")
            if ra & ra2 and rb & rb2:
                problems.append(f"range rectangles {i} and {j} overlap")
        return problems

    def as_code(self) -> tuple[int, ...]:
        return self.product.assemble(self.parts)


def rectangle_decompose(pp: PackedProduct, x, reverse: bool = False) -> RectangleUnion:
    """Write a product code x as a rectangle union in the monoid M.

    Each left arrow a of x has its partners B_a, the right arrows b with
    a x b in x. The left arrows with the same partners form one part
    A x B_a, and x is the union of these parts, one pass over its arrows.
    reverse groups by right arrow instead, which gives a second,
    independent decomposition of the same element for invariance checks.

    The parts are rectangles of bisections: two partners of a with one
    source (or range) would give x two arrows with one source, and so
    would two arrows of A with one source, paired with any b in B_a. No two
    parts overlap: arrows a x b and a' x b' of two parts with one source (or
    range) both lie in x, so a = a' and the parts are the same. The
    classes A are disjoint and the B_a distinct, so no two parts share a
    factor either.

    RectangleUnion checks the overlaps once, when the union is built; the
    certificate made here is that the union reassembles x.
    """
    own_side, other_side = (pp.right, pp.left) if reverse else (pp.left, pp.right)
    partners = {}  # own piece -> the code of its partners
    for w, z in enumerate(x):
        if z >= 0:
            a, b = pp.split[w][z]
            own, (v, y) = (b, a) if reverse else (a, b)
            partners.setdefault(own, [-1] * other_side.n_units)[v] = y
    classes = {}  # partners' code -> the code of the own pieces that share them
    for (u, code), others in partners.items():
        classes.setdefault(tuple(others), [-1] * own_side.n_units)[u] = code
    parts = tuple((other, tuple(own)) if reverse else (tuple(own), other) for other, own in classes.items())
    union = RectangleUnion(pp, parts)
    if union.as_code() != x:
        raise CertificateError("rectangle decomposition does not reassemble the bisection")
    return union


# ---------------------------------------------------------------------------
# Ladder embeddings: block copies of [[n]] inside a larger full relation,
# each arrow x -> y sent to q*n + x -> q*n + y for each copy q


def step_map(n: int) -> SemigroupMap:
    """Literal inclusion [[n]] -> [[n+1]]: same map, undefined at the new point.

    For n >= 2 its table is general_map(n, n + 1)'s. It stays for n = 1,
    where it is the one-copy inclusion [[1]] -> [[2]] and general_map(1, 2)
    makes two copies."""
    return _copies(full_relation(n), n + 1, [(1, [0])], f"step[{n}->{n + 1}]")


def check_ladder(n: int, p: int) -> None:
    """Raise the ValueError of general_map(n, p) for sizes it rejects."""
    if n < 1:
        raise ValueError(f"source size {n} must be positive")
    if p < n:
        raise ValueError(f"target size {p} below {n}")


def general_map(n: int, p: int) -> SemigroupMap:
    """[[n]] -> [[p]] for p >= n: floor(p/n) block copies, exactly isometric
    onto their points, then p mod n points left undefined."""
    check_ladder(n, p)
    return _copies(full_relation(n), p, [(1, range(0, p // n * n, n))], f"ladder[{n}->{p}]")
