"""The contact-variable-extended series of the root stack and its
infinite-order limit, built one curve class at a time, each class's terms
emitted already in print order.

Only the extended builders live here.
:func:`~rootstack_gw.ifunctions.i_root_extended` and
:func:`~rootstack_gw.ifunctions.i_infinity_extended` import this module when
they are called, so the commands that never build an extended series never
load or compile it.

A class's terms are emitted without being held or sorted.  A contact
monomial k_i of divisor i at net shift s_i has the excess
e_i = |k_i| - ``_weight_degree``(d_i, s_i, r_i), and the body of the shift
tuple has z-degree 1 - deg(beta) + sum_i ``_weight_degree``(d_i, s_i, r_i).
So the term that attaches the contact vector k to the body cell of
monomial mono has z-power -(E + |mono|), with E = sum_i e_i - (1 -
deg(beta)): the z-power is fixed by one excess per divisor.  The terms come
out z-power by z-power, then monomial by monomial, then contact vector by
contact vector in lex order, each vector drawn from the divisors' monomial
lists in the order :func:`_choices` walks them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Iterator, NamedTuple

from .algebra import GradedSeries, SeriesContext, TermKey
from .ifunctions import (
    ExtendedBudgetError,
    _body_chain,
    _finite_sector,
    _sector_meets,
    _validated,
    _weight_degree,
)
from .targets import (
    ConfigurationError,
    DivisorArrangement,
    RootData,
    TargetSpace,
    enumerate_curve_classes,
)

# Most contact combinations an extended build may form, as counted by
# _combination_count.  Every benchmark job counts at most 6,188.  A
# `--format records` child holds one class's bodies and contact monomials
# at a time, never its terms, so the largest accepted jobs stay small in
# memory but not in time (2-vCPU Xeon, CPython 3.11).  On the README job
# (line + conic, roots 7, 11, m 6) the infinite-order series counts 251,940
# at cap 5 and writes its 312,458 records in 1.6 s at a peak of 18.5 MB,
# and 1,939,938 at cap 7, writing 2,721,572 records in 11 s at 22 MB; it
# counts 10,816,624 at cap 9, where degree zero alone keeps 2,704,156
# terms.  The finite-order series counts 418,390 at cap 2 and writes its
# 221,078 records in 1.6 s at 30 MB.  On P^1 x P^1 with both diagonals the
# infinite-order series counts 1,889,550 at cap 9 and writes 3,929,548
# records in 18 s at 19 MB.
MAX_CONTACT_COMBINATIONS = 2_000_000


class _Contacts(NamedTuple):
    """One divisor's contact monomials prod_j x_{ij}^{e_j} within a budget,
    as parallel lists in lex order of their triples (i, j, e_j).

    That is the pre-order of the trie whose children extend a monomial by
    one more contact order, so a monomial's extensions are the entries
    after it up to its ``end``.
    """

    total: list[int]  # sum_j e_j: the z-power the monomial divides out
    weight: list[int]  # prod_j e_j!; the monomial's coefficient is 1 / weight
    xexp: list[tuple[tuple[int, int, int], ...]]
    reduction: list[int]  # sum_j j e_j: what it takes off the intersection number
    end: list[int]  # the index past the monomial's extensions


def _contact_vectors(i: int, costs: list[int], budget: int) -> _Contacts:
    """Contact monomials of divisor i whose cost stays within the budget,
    where order j costs costs[j - 1] > 0 per unit; the first is the empty
    monomial."""
    out = _Contacts([], [], [], [], [])
    totals, weights, xexps, reductions, ends = out

    def rec(j0: int, left: int, reduction: int, total: int, denom: int, xexp: tuple):
        # one call per monomial: record it, then extend it by one more
        # order j >= j0 with a positive exponent
        k = len(ends)
        totals.append(total)
        weights.append(denom)
        xexps.append(xexp)
        reductions.append(reduction)
        ends.append(0)
        for j in range(j0, len(costs) + 1):
            cost = costs[j - 1]
            e, weight = 1, denom
            while e * cost <= left:
                weight *= e
                with_e = xexp + ((i, j, e),)
                rec(j + 1, left - e * cost, reduction + j * e, total + e, weight, with_e)
                e += 1
        ends[k] = len(ends)

    rec(1, budget, 0, 0, 1, ())
    return out


def _combination_count(
    costs: list[list[int]], budget: int, steps: int
) -> tuple[int, int] | None:
    """(count, steps taken): how many choices of one contact monomial per
    divisor have summed cost at most ``budget``, where divisor i's order j
    costs costs[i][j - 1] > 0 per unit.  That is the most contact
    combinations one class can form over all its shift tuples.

    Monomials are counted by cost, never listed, since one divisor alone can
    have millions within the budget.  Each loop step adds at least one
    monomial or combination, or ends a row, so a count of C takes at most
    3 n C steps; None means more than ``steps`` would be needed.
    """
    if budget < 0:
        return 0, 0
    taken = 0
    joint = {0: 1}  # choices for the divisors so far, by summed cost
    for divisor_costs in costs:
        counts = {0: 1}  # this divisor's monomials by cost
        for cost in divisor_costs:
            grown = dict(counts)
            for c, k in counts.items():
                c += cost
                while c <= budget:
                    grown[c] = grown.get(c, 0) + k
                    c += cost
                    taken += 1
            counts = grown
            if taken > steps:
                return None
        ordered = sorted(counts.items())
        pairs: dict[int, int] = {}
        for a, ka in joint.items():
            for c, k in ordered:
                taken += 1
                if a + c > budget:
                    break
                pairs[a + c] = pairs.get(a + c, 0) + ka * k
            if taken > steps:
                return None
        joint = pairs
    return sum(joint.values()), taken


def _check_contact_budget(costs: list[list[int]], budgets: list[int]) -> None:
    """Refuse, with the count, an extended build whose classes, at the given
    contact budgets, would form more than :data:`MAX_CONTACT_COMBINATIONS`
    contact combinations in total."""
    estimate = 0
    # a count up to the limit takes at most this many steps
    steps = 3 * len(costs) * MAX_CONTACT_COMBINATIONS
    limit = f"the limit of {MAX_CONTACT_COMBINATIONS:,}; lower the cap or m"
    for budget in budgets:
        counted = _combination_count(costs, budget, steps)
        if counted is None:
            raise ExtendedBudgetError(
                f"the extended series would form more contact combinations than {limit}"
            )
        estimate += counted[0]
        steps -= counted[1]
    if estimate > MAX_CONTACT_COMBINATIONS:
        raise ExtendedBudgetError(
            f"the extended series would form up to {estimate:,} contact "
            f"combinations, over {limit}"
        )


class _Level(NamedTuple):
    """One divisor's contact monomials at one curve class."""

    contacts: _Contacts
    shift: list[int]  # the net shift d_i - reduction
    excess: list[int]  # the total less the weight's z-degree at that shift
    low: list[int]  # the least excess among the monomial and its extensions
    least: dict[int, int]  # the least excess by shift, shifts in first-seen order
    by_excess: dict[int, list[int]]  # the monomials' indices by excess, in order


def _level(contacts: _Contacts, d: int, r: int | None) -> _Level:
    """Divisor data of one class with intersection number d, root order r
    (None at infinite order)."""
    degree: dict[int, int] = {}  # the weight's z-degree by reduction
    shift, excess = [], []
    least: dict[int, int] = {}
    by_excess: dict[int, list[int]] = {}
    for k, (total, reduction) in enumerate(zip(contacts.total, contacts.reduction)):
        s = d - reduction
        if reduction not in degree:
            degree[reduction] = _weight_degree(d, s, r)
        x = total - degree[reduction]
        shift.append(s)
        excess.append(x)
        if x < least.get(s, x + 1):
            least[s] = x
        by_excess.setdefault(x, []).append(k)
    end = contacts.end
    low = excess[:]
    for k in range(len(end) - 1, -1, -1):
        child = k + 1
        while child < end[k]:
            low[k] = min(low[k], low[child])
            child = end[child]
    return _Level(contacts, shift, excess, low, least, by_excess)


def _choices(
    levels: list[_Level], i: int, want: int, tree: dict
) -> Iterator[tuple[tuple, int, tuple]]:
    """(xexp, weight, leaf) of each choice of one contact monomial for each
    divisor from i on whose excesses sum to ``want`` and whose shifts lead
    to a leaf of ``tree``, in lex order of xexp.

    The last divisor's monomials are read off its excess index.  An earlier
    divisor's list is walked in order.  The choices with monomial a come
    in three runs: a with every later monomial empty when a is reached;
    then the choices of a's extensions; then a with a nonempty rest once
    a's extensions are done, since a rest begins with a later divisor's
    triple.
    """
    level = levels[i]
    shift, xexps, weights = level.shift, level.contacts.xexp, level.contacts.weight
    if i + 1 == len(levels):
        for k in level.by_excess.get(want, ()):
            leaf = tree.get(shift[k])
            if leaf is not None:
                yield xexps[k], weights[k], leaf
        return
    excess, low, end = level.excess, level.low, level.contacts.end
    later = levels[i + 1 :]
    empty_excess = sum(after.excess[0] for after in later)
    # the largest excess that leaves the later divisors a choice
    most = want - sum(after.low[0] for after in later)
    size = len(end)
    k = 0
    walking: list[tuple[int, dict]] = []  # monomials whose extensions come next
    while True:
        while walking and (k == size or end[walking[-1][0]] <= k):
            p, sub = walking.pop()
            x, w = xexps[p], weights[p]
            for rest, rest_weight, leaf in _choices(levels, i + 1, want - excess[p], sub):
                if rest:
                    yield x + rest, w * rest_weight, leaf
        if k == size:
            return
        if low[k] > most:
            k = end[k]
            continue
        sub = tree.get(shift[k])
        if sub is not None and excess[k] <= most:
            if excess[k] + empty_excess == want:
                leaf = sub
                for after in later:
                    leaf = leaf.get(after.shift[0])
                    if leaf is None:
                        break
                else:
                    yield xexps[k], weights[k], leaf
            walking.append((k, sub))
        k += 1


def _class_rows(
    levels: list[_Level],
    trees: list[tuple[tuple[int, ...], int, dict]],
    top: int,
    first: int,
    last: int,
) -> Iterator[tuple]:
    """One class's rows in print order, -z-power from ``first`` to ``last``.

    ``trees`` holds (mono, |mono|, tree) in the order of the monomials, the
    tree leading by shifts to the body cells of that monomial; ``top`` is
    the target slice's z-power 1 - deg(beta).  A row's -z-power is the sum
    of its excesses less ``top``, plus |mono|.
    """
    no_lam = (0,) * len(levels)
    reduced: dict[tuple[int, int], Fraction] = {}  # (numerator, denominator)
    for negz in range(first, last + 1):
        for mono, size, tree in trees:
            want = negz - size + top
            for xexp, weight, (sector, c, den) in _choices(levels, 0, want, tree):
                denom = den * weight
                q = reduced.get((c, denom))
                if q is None:
                    q = reduced[(c, denom)] = Fraction(c, denom)
                yield negz, mono, xexp, sector, no_lam, q


def extended_rows(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    m: int,
    cap: int,
    z_floor: int | None = -1,
    roots: RootData | None = None,
) -> tuple[SeriesContext, Iterator[tuple[tuple[int, ...], Iterator[tuple]]]]:
    """(ctx, classes): the extended series of the root stack at the orders
    ``roots``, or its infinite-order limit (``roots`` None), with contact
    orders 1..m, as (beta, rows) per curve class in lex order, the class's
    terms an iterator of :func:`~rootstack_gw.algebra.print_row` rows in
    print order, to be read before the next class.  Every refusal comes
    first, so the iterator never raises.

    A contact vector k multiplies the body of its net shifts s_i = d_i -
    sum_j j k_ij (:func:`~rootstack_gw.ifunctions._body_chain`, in the
    sector of the negated shifts) by prod x^k / (prod k! z^|k|).  One exact
    bound keeps the sum finite: a vector whose total |k| exceeds the highest
    z-power of its body minus the floor has no term at or above the floor.
    The body's z-degree, the target slice's 1 - deg(beta) plus each
    divisor's :func:`~rootstack_gw.ifunctions._weight_degree`, is its top
    z-power at infinite order and at least that at finite order.

    The contact budget is that bound spread over the monomials.  Contact
    order j of divisor i weighs w_ij = (r_i - j)/r_i (1 at infinite order;
    every contact order must stay below each root order so the weights are
    positive), and a monomial costs sum_j w_ij k_ij = T_i - (d_i - s_i)/r_i,
    with T_i = sum_j k_ij.  Since _weight_degree(d, s, r) <= d - s/r (at
    most d at infinite order), T_i less its weight degree is at least the
    cost less d_i w_i1, so a vector that reaches the floor costs at most
    1 - deg(beta) - floor + sum_i d_i w_i1 in total.  The combinations
    within the budget are counted per class before anything is built; past
    :data:`MAX_CONTACT_COMBINATIONS` in total the build is refused with
    :class:`~rootstack_gw.ifunctions.ExtendedBudgetError`.

    Each divisor's monomials within that budget are listed once per budget.
    A shift tuple whose least excesses already sum past the floor's reach
    is skipped before its sector is labelled or its body built, so
    :class:`~rootstack_gw.ifunctions.SectorFoldWarning` names only shifts
    that can reach the floor.  The bodies of a class are built, in the
    order of the shift tuples, when the class is reached; only their
    nonzero cells are kept, by monomial and shift.  The contact monomial is
    attached by moving a body cell to z-power zpow - |k|, its coefficient
    the cell's integer numerator over the chain's denominator times
    prod k!, reduced once per distinct pair in the class.
    """
    _validated(X, arrangement, roots)
    if m < 1:
        raise ConfigurationError("at least one contact order is required")
    floor = z_floor
    if floor is None:
        raise ConfigurationError("extended series need a finite z floor to truncate")
    roots = None if roots is None else roots.orders  # from here on, the orders
    if roots is not None and any(m >= r for r in roots):
        raise ConfigurationError(
            "contact orders up to m must stay below every root order"
        )
    ctx = X.context(arrangement.n, cap, z_floor=floor, roots=roots)
    n = arrangement.n
    # costs are the weights w_ij in units of 1/scale, so budgets stay
    # integral; costs[i][0] is w_i1
    if roots is None:
        scale, costs = 1, [[1] * m for _ in range(n)]
    else:
        scale = lcm(*roots)
        costs = [[(r - j) * (scale // r) for j in range(1, m + 1)] for r in roots]
    budgets = {}  # by class: (reach, budget)
    for beta in enumerate_curve_classes(X, cap):
        # the target slice's top z-power less the floor
        reach = 1 - ctx.beta_degree(beta) - floor
        degs = arrangement.degrees(beta)
        # a divisor's cost exceeds T_i less its weight degree by at most d_i w_i1
        spread = sum(d * c[0] for d, c in zip(degs, costs))
        budgets[beta] = reach, reach * scale + spread
    _check_contact_budget(costs, [budget for _, budget in budgets.values()])

    def classes():
        contact_cache: dict[tuple[int, int], _Contacts] = {}
        meets: dict[tuple[bool, ...], bool] = {}  # by the sector's support
        for beta, (reach, budget) in budgets.items():
            degs = arrangement.degrees(beta)
            levels = []
            for i in range(n):
                if (i, budget) not in contact_cache:
                    contact_cache[(i, budget)] = _contact_vectors(i, costs[i], budget)
                r = None if roots is None else roots[i]
                levels.append(_level(contact_cache[(i, budget)], degs[i], r))
            # by monomial, nested dicts by shift down to the leaves
            # (sector, numerator, den) of the bodies' nonzero cells
            trees: dict[tuple[int, ...], dict] = {}
            top = reach + floor  # the target slice's z-power 1 - deg(beta)
            first = -floor  # the least -z-power of any row
            for shifts in product(*(level.least for level in levels)):
                least = sum(level.least[s] for level, s in zip(levels, shifts))
                if least > reach:
                    continue
                if roots is None:
                    sector = tuple(-s for s in shifts)
                else:
                    sector = _finite_sector(shifts, roots)
                support = tuple(map(bool, sector))
                if support not in meets:
                    meets[support] = _sector_meets(X, arrangement, sector)
                if not meets[support]:
                    continue
                chain = _body_chain(X, arrangement, beta, shifts, roots)
                cells = chain.cells()
                if not cells:
                    continue
                for mono, c in cells.items():
                    node = trees.setdefault(mono, {})
                    for s in shifts[:-1]:
                        node = node.setdefault(s, {})
                    node[shifts[-1]] = (sector, c, chain.den)
                first = min(first, least + min(map(sum, cells)) - top)
            ordered = [(mono, sum(mono), trees[mono]) for mono in sorted(trees)]
            yield beta, _class_rows(levels, ordered, top, first, -floor)

    return ctx, classes()


def _rows_series(
    ctx: SeriesContext, classes: Iterable[tuple[tuple[int, ...], Iterable[tuple]]]
) -> GradedSeries:
    """The series of ``classes``, rows as :func:`extended_rows` gives them:
    within the cap, at or above the floor, every coefficient nonzero."""
    out: dict[TermKey, Fraction] = {}
    for beta, rows in classes:
        for negz, mono, xexp, sector, lam, c in rows:
            out[TermKey(beta, -negz, xexp, sector, mono, lam)] = c
    return GradedSeries._trusted(ctx, out)
