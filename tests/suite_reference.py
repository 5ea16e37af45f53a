"""The bodies of the inverse-monoid, metric-prop, trace-distance and
supports suites before they came to read products and distances inline,
kept as the reference they are tested against: every check through a
per-tuple predicate that calls mul(a, b) and dist(a, b) on the kernel's
handles, under the tuple gate _count. On a PoolTable those calls are
lookups in its products and distances, so a table with a corrupted entry
gives the same corrupted report here as in verify; on a PackedMonoid they
are its own mul and dist.

Each suite takes its kernel, pools and results from soficlab.verify at call
time, so a test that patches verify._kernel runs both on the same kernel.

block_identity is the finite-index suite's block identity as it was
counted before the block matrix became one code of G x [[n]]
(constructions.block_codes): on flat matrices of n*n codes of G, one per
cell, which flat_blocks writes from system.blocks; an element passes
flat_violation, the exchange law and the column and row checks cell by
cell; and the union over j of a_ij b_jl is an entrywise max of n
per-cell products, with a break at a pair's first differing cell. The
suite reads system.blocks too, so a system whose blocks are redirected
runs both on the same matrices.

Every tuple loop here runs tuple by tuple over tuples, the rows of the
gate verify._run flattened in order, where the suites run row by row.
"""

from functools import cache
from itertools import product as iproduct
from itertools import starmap

from soficlab import verify
from soficlab.constructions import find_transversals
from soficlab.semigroup import PackedMonoid, PoolTable


def operations(k):
    """mul and dist of kernel k as functions of two handles."""
    if isinstance(k, PoolTable):
        return (lambda a, b: k.products[a][b]), (lambda a, b: k.distances[a][b])
    return k.mul, k.dist


def tuples(sizes, budget, pools_exhaustive):
    """The index tuples of verify._run's rows, in order, whether they are
    exhaustive and how many there are."""
    rows, run = verify._run(sizes, budget, pools_exhaustive)
    flat = ((*prefix, last) for *prefix, lasts in rows for last in lasts)
    return flat, run["exhaustive"], run["tested"]


def _count(sizes, budget, pools_exhaustive, bad):
    flat, exhaustive, tested = tuples(sizes, budget, pools_exhaustive)
    return sum(starmap(bad, flat)), {"tested": tested, "exhaustive": exhaustive}


def suite_inverse_monoid(g, budget):
    k, pool, exhaustive = verify._kernel(g, budget)
    mul, _ = operations(k)
    inv = k.inv
    n = len(pool)
    one, zero = k.one, k.zero
    invs = [inv(a) for a in pool]
    checks = []

    bad = [a for a in pool if not (mul(a, one) == a == mul(one, a))]
    checks.append(verify._result("unit-law", not bad, tested=n, exhaustive=exhaustive))
    bad = [a for a in pool if not (mul(zero, a) == zero == mul(a, zero))]
    checks.append(verify._result("zero-absorbing", not bad, tested=n, exhaustive=exhaustive))

    bad = [
        a
        for a, ai in zip(pool, invs)
        if mul(mul(a, ai), a) != a or mul(mul(ai, a), ai) != ai
    ]
    checks.append(verify._result("inverse-law", not bad, tested=n, exhaustive=exhaustive))

    def not_associative(ia, ib, ic):
        a, b, c = pool[ia], pool[ib], pool[ic]
        return mul(mul(a, b), c) != mul(a, mul(b, c))

    viol, run = _count((n, n, n), budget, exhaustive, not_associative)
    checks.append(verify._result("associativity", viol == 0, violations=viol, **run))

    def another_inverse(ia, ib):
        a, b = pool[ia], pool[ib]
        return mul(mul(a, b), a) == a and mul(mul(b, a), b) == b and b != invs[ia]

    viol, run = _count((n, n), budget, exhaustive, another_inverse)
    checks.append(verify._result("inverse-uniqueness", viol == 0, violations=viol, **run))

    unit_sets = [k.fix(a) == k.src(a) for a in pool]
    bad = [a for a, is_unit_set in zip(pool, unit_sets) if is_unit_set != (mul(a, a) == a)]
    checks.append(
        verify._result("idempotents-are-unit-sets", not bad, tested=n, exhaustive=exhaustive)
    )

    idems = [a for a, is_unit_set in zip(pool, unit_sets) if is_unit_set]
    viol, run = _count(
        (len(idems), len(idems)),
        budget,
        exhaustive,
        lambda i, j: mul(idems[i], idems[j]) != mul(idems[j], idems[i]),
    )
    checks.append(verify._result("idempotents-commute", viol == 0, **run))
    return checks


def suite_metric(g, budget):
    k, pool, exhaustive = verify._kernel(g, budget)
    (mul, dist), mass = operations(k), k.mass
    n = len(pool)
    invs = [k.inv(a) for a in pool]
    src = [k.src(a) for a in pool]
    rng = [k.rng(a) for a in pool]
    checks = []

    # distance by pool index; a table's handles are its pool indices
    d = dist if isinstance(k, PoolTable) else lambda i, j: dist(pool[i], pool[j])

    bad = [i for i in range(n) if mass(src[i]) != mass(rng[i])]
    checks.append(verify._result("pmp-mass-law", not bad, tested=n, exhaustive=exhaustive))

    # the pair checks that read only distances share one run of pairs
    pairs, exh2, cnt2 = tuples((n, n), budget, exhaustive)
    asymmetric = zero_off_diagonal = not_invariant = uncorrected = 0
    witness = None
    for i, j in pairs:
        dij = d(i, j)
        asymmetric += dij != d(j, i)
        # a pool holds each element once
        zero_off_diagonal += (dij == 0) != (i == j)
        change = dist(invs[i], invs[j]) - dij
        if change:
            not_invariant += 1
            if witness is None:
                witness = tuple([list(a) for a in k.arrows(pool[x])] for x in (i, j))
        uncorrected += change != mass(rng[i] | rng[j]) - mass(src[i] | src[j])
    run = {"tested": cnt2, "exhaustive": exh2}
    checks.append(verify._result("symmetry", asymmetric == 0, **run))
    checks.append(verify._result("zero-iff-equal", zero_off_diagonal == 0, **run))

    viol, run3 = _count((n, n, n), budget, exhaustive, lambda a, b, c: d(a, c) > d(a, b) + d(b, c))
    checks.append(verify._result("triangle", viol == 0, violations=viol, **run3))

    checks.append(
        verify._result(
            "inverse-invariance",
            not_invariant == 0,
            violations=not_invariant,
            witness=witness,
            note="fails off the full group; see inverse-invariance-corrected",
            **run,
        )
    )

    full = [i for i in range(n) if src[i] == rng[i] == k.full_mask]
    viol, run_full = _count(
        (len(full), len(full)),
        budget,
        exhaustive,
        lambda i, j: dist(invs[full[i]], invs[full[j]]) != d(full[i], full[j]),
    )
    checks.append(verify._result("inverse-invariance-full-group", viol == 0, **run_full))
    checks.append(verify._result("inverse-invariance-corrected", uncorrected == 0, **run))

    def product_too_far(ia, ib, ic, id_):
        return dist(mul(pool[ia], pool[ib]), mul(pool[ic], pool[id_])) > d(ia, ic) + d(ib, id_)

    viol, run = _count((n, n, n, n), budget, exhaustive, product_too_far)
    checks.append(verify._result("product-inequality", viol == 0, violations=viol, **run))

    def inverse_too_far(ia, ib):
        a, b = pool[ia], pool[ib]
        return dist(a, invs[ib]) > dist(a, mul(mul(a, b), a)) + dist(b, mul(mul(b, a), b))

    viol, run = _count((n, n), budget, exhaustive, inverse_too_far)
    checks.append(verify._result("inverse-triangle", viol == 0, violations=viol, **run))
    return checks


def suite_trace_distance(g, budget):
    k, pool, exhaustive = verify._kernel(g, budget)
    (mul, dist), trace = operations(k), k.trace
    one, total = k.one, k.total
    sources = [k.idem(k.src(a)) for a in pool]
    source_traces = [trace(s) for s in sources]
    invs = [k.inv(a) for a in pool]
    n = len(pool)
    checks = []

    bad = 0
    for a, s in zip(pool, sources):
        if trace(a) != total - dist(s, one) - dist(s, a):
            bad += 1
    checks.append(verify._result("trace-from-distance", bad == 0, tested=n, exhaustive=exhaustive))

    def off_by_traces(ia, ib):
        rhs = (
            source_traces[ia]
            + source_traces[ib]
            - trace(mul(sources[ia], sources[ib]))
            - trace(mul(invs[ib], pool[ia]))
        )
        return dist(pool[ia], pool[ib]) != rhs

    bad, run = _count((n, n), budget, exhaustive, off_by_traces)
    checks.append(verify._result("distance-from-trace", bad == 0, **run))
    return checks


def suite_supports(g, budget):
    k, group, exhaustive = verify._kernel(g, budget, "group")
    malg, malg_exh = verify._pool(k, "malg", budget)
    (mul, dist), inv, idem, src, rng = operations(k), k.inv, k.idem, k.src, k.rng
    total = k.total
    traces = [k.trace(a) for a in group]
    fixes = [k.fix(a) for a in group]
    supps = [src(a) & ~f for a, f in zip(group, fixes)]
    moved = [dist(k.one, a) for a in group]
    ones = [idem(units) for units in malg]  # 1_A for each unit set A
    n, m = len(group), len(malg)
    both_exhaustive = exhaustive and malg_exh
    checks = []

    def image(a, A):
        """a(A), for a full-group element a and the unit set malg[A]."""
        return rng(mul(a, ones[A]))

    def supp_not_fix(i, j):
        left = supps[i] == fixes[j]
        return left != (dist(group[i], group[j]) == total and traces[i] + traces[j] == total)

    viol, run = _count((n, n), budget, exhaustive, supp_not_fix)
    checks.append(verify._result("supp-eq-fix", viol == 0, **run))

    def overlap_not_disjoint(i, j):
        return (not supps[i] & supps[j]) != (dist(group[i], group[j]) == moved[i] + moved[j])

    viol, run = _count((n, n), budget, exhaustive, overlap_not_disjoint)
    checks.append(verify._result("disjoint-supports", viol == 0, **run))

    # supp(a b a^-1) = a(supp(b)), where a(A) = rng(a 1_A)
    def not_covariant(i, j):
        a = group[i]
        conj = mul(mul(a, group[j]), inv(a))
        return src(conj) & ~k.fix(conj) != rng(mul(a, idem(supps[j])))

    viol, run = _count((n, n), budget, exhaustive, not_covariant)
    checks.append(verify._result("covariance", viol == 0, **run))

    def mass_moved(i, A):
        return k.mass(image(group[i], A)) != k.mass(malg[A])

    viol, run = _count((n, m), budget, both_exhaustive, mass_moved)
    checks.append(verify._result("action-preserves-mass", viol == 0, **run))

    def order_reversed(i, A, B):
        a = group[i]
        return not malg[A] & ~malg[B] and image(a, A) & ~image(a, B) != 0

    viol, run = _count((n, m, m), budget, both_exhaustive, order_reversed)
    checks.append(verify._result("action-preserves-order", viol == 0, **run))

    # (a 1_A)(b 1_B) = ab 1_C, where C = B n b^-1(A) and b^-1(A) = src(1_A b)
    def corner_product_differs(i, j, A, B):
        a, b = group[i], group[j]
        left = mul(mul(a, ones[A]), mul(b, ones[B]))
        return left != mul(mul(a, b), idem(malg[B] & src(mul(ones[A], b))))

    viol, run = _count((n, n, m, m), budget, both_exhaustive, corner_product_differs)
    checks.append(verify._result("corner-product-identity", viol == 0, **run))
    return checks


def flat_blocks(system, pm, x):
    """The block matrix of code x as n*n codes of pm, cell (i, j) at
    i*n + j, each block arrow written where pm places it."""
    n = system.index
    blocks = [[-1] * pm.n_units for _ in range(n * n)]
    for a in pm.arrows(x):
        for i, j, b in system.blocks[a]:
            u, c = pm.place(b)
            blocks[i * n + j][u] = c
    return list(map(tuple, blocks))


def flat_violation(pm, n, blocks, co_blocks):
    """The first check flat blocks fail, or None: the exchange law
    alpha_{i,j}^-1 = (alpha^-1)_{j,i} against co_blocks, the blocks of
    alpha^-1, then disjoint sources within each column and disjoint ranges
    within each row."""
    cells = list(iproduct(range(n), repeat=2))
    for i, j in cells:
        if pm.inv(blocks[i * n + j]) != co_blocks[j * n + i]:
            return f"block exchange law fails at ({i},{j})"
    sources, ranges = [pm.src(b) for b in blocks], [pm.rng(b) for b in blocks]
    for (j, i), k in iproduct(cells, range(n)):
        if i < k and sources[i * n + j] & sources[k * n + j]:
            return f"column {j}: blocks {i} and {k} share a source"
    for (i, j), l in iproduct(cells, range(n)):
        if j < l and ranges[i * n + j] & ranges[i * n + l]:
            return f"row {i}: blocks {j} and {l} share a range"
    return None


def block_identity(g, sub_arrows, budget, system=None):
    """The finite-index suite's block-identity result, cell by cell."""
    system = system or find_transversals(g, sub_arrows)
    pm = PackedMonoid(g)
    pool, exhaustive = verify._pool(pm, "semigroup", budget)
    nn = system.index

    @cache
    def blocks(x):
        return flat_blocks(system, pm, x)

    passed = [x for x in pool if flat_violation(pm, nn, blocks(x), blocks(pm.inv(x))) is None]
    matrices = list(map(blocks, passed))
    pairs, exhaustive, tested = tuples((len(passed), len(passed)), budget, exhaustive)
    viol, left = 0, None
    for ia, ib in pairs:
        if ia != left:
            left, rows = ia, [pm.left_row(a_ij).__getitem__ for a_ij in matrices[ia]]
        bb, bab = matrices[ib], blocks(pm.mul(passed[ia], passed[ib]))
        for i, l in iproduct(range(nn), repeat=2):
            products = [tuple(map(a_ij, bb[j * nn + l])) for j, a_ij in enumerate(rows[i * nn : (i + 1) * nn])]
            if tuple(map(max, zip(*products))) != bab[i * nn + l]:
                viol += 1
                break
    return verify._result("block-identity", viol == 0, violations=viol, tested=tested, exhaustive=exhaustive)


SUITES = {
    "inverse-monoid": suite_inverse_monoid,
    "metric-prop": suite_metric,
    "trace-distance": suite_trace_distance,
    "supports": suite_supports,
}
