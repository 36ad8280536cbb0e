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
from typing import Iterator, NamedTuple

from .algebra import GradedSeries, SeriesContext, TermKey
from .ifunctions import (
    ExtendedBudgetError,
    _body_chain,
    _divisor_weight,
    _finite_sector,
    _sector_meets,
    _validated,
    _weight_degree,
)
from .records import fmt_ints
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
# at cap 5 and writes its 312,458 records in 0.5 s at a peak of 18 MB, and
# 1,939,938 at cap 7, writing 2,721,572 records in 3.5-4.5 s at 22 MB; it
# counts 10,816,624 at cap 9, where degree zero alone keeps 2,704,156
# terms.  The finite-order series counts 418,390 at cap 2 and writes its
# 221,078 records in 0.6 s at 31 MB.  On P^1 x P^1 with both diagonals the
# infinite-order series counts 1,889,550 at cap 9 and writes 3,929,548
# records in 4.5 s at 18 MB.
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
    text: list[str]  # its record text, "" for the empty monomial
    reduction: list[int]  # sum_j j e_j: what it takes off the intersection number
    end: list[int]  # the index past the monomial's extensions


def _contact_vectors(i, costs, budget) -> _Contacts:
    """Contact monomials of divisor i whose cost stays within the budget,
    where order j costs costs[j - 1] > 0 per unit; the first is the empty
    monomial."""
    out = _Contacts([], [], [], [], [], [])
    totals, weights, xexps, texts, reductions, ends = out
    triples = {}  # by (j, e): one (i, j, e) for every monomial

    def rec(j0, left, reduction, total, denom, xexp, text):
        # one call per monomial: record it, then extend it by an order j >= j0
        k = len(ends)
        totals.append(total)
        weights.append(denom)
        xexps.append(xexp)
        texts.append(text)
        reductions.append(reduction)
        ends.append(0)
        lead = text + "," if text else ""
        for j in range(j0, len(costs) + 1):
            cost = costs[j - 1]
            e, weight = 1, denom
            while e * cost <= left:
                weight *= e
                triple = triples.setdefault((j, e), (i, j, e))
                after = left - e * cost, reduction + j * e, total + e, weight
                # x_{ij}^e as report.fmt_contact writes it
                rec(j + 1, *after, xexp + (triple,), lead + "%d:%d^%d" % (i + 1, j, e))
                e += 1
        ends[k] = len(ends)

    rec(1, budget, 0, 0, 1, (), "")
    return out


def _combination_count(costs, budget, steps):
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
        pairs = {}
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


def _check_contact_budget(costs, budgets) -> None:
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


def _level(contacts, d, r) -> _Level:
    """Divisor data of one class with intersection number d, root order r
    (None at infinite order)."""
    degree: dict[int, int] = {}  # the weight's z-degree by reduction
    shift, excess = [], []
    least, by_excess = {}, {}
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


def _choices(levels, i, want, tree) -> Iterator[tuple]:
    """(xexp, text, weight, leaf) of each choice of one contact monomial for
    each divisor from i on whose excesses sum to ``want`` and whose shifts
    lead to a leaf of ``tree``, in lex order of xexp; ``text`` is the
    monomials' record texts joined, "" for the empty choice.

    The last divisor's monomials are read off its excess index.  An earlier
    divisor's list is walked in order.  The choices with monomial a come
    in three runs: a with every later monomial empty when a is reached;
    then the choices of a's extensions; then a with a nonempty rest once
    a's extensions are done, since a rest begins with a later divisor's
    triple.
    """
    level = levels[i]
    contacts = level.contacts
    shift, xexps, texts, weights = level.shift, contacts.xexp, contacts.text, contacts.weight
    if i + 1 == len(levels):
        for k in level.by_excess.get(want, ()):
            leaf = tree.get(shift[k])
            if leaf is not None:
                yield xexps[k], texts[k], weights[k], leaf
        return
    excess, low, end = level.excess, level.low, contacts.end
    later = levels[i + 1 :]
    empty_excess = sum(after.excess[0] for after in later)
    # the largest excess that leaves the later divisors a choice
    most = want - sum(after.low[0] for after in later)
    size = len(end)
    k = 0
    walking = []  # (monomial, subtree) whose extensions come next
    while True:
        while walking and (k == size or end[walking[-1][0]] <= k):
            p, sub = walking.pop()
            x, w = xexps[p], weights[p]
            lead = texts[p] + "," if x else ""
            for rest, text, rest_weight, leaf in _choices(levels, i + 1, want - excess[p], sub):
                if rest:
                    yield x + rest, lead + text, w * rest_weight, leaf
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
                    yield xexps[k], texts[k], weights[k], leaf
            walking.append((k, sub))
        k += 1


def _class_rows(levels, trees, top, first, last) -> Iterator[tuple]:
    """One class's rows in print order, -z-power from ``first`` to ``last``.

    ``trees`` holds (mono, |mono|, tree) in the order of the monomials, the
    tree leading by shifts to the body cells of that monomial; ``top`` is
    the target slice's z-power 1 - deg(beta).  A row's -z-power is the sum
    of its excesses less ``top``, plus |mono|.  A row's text joins texts made
    once per z-power, contacts, sector, monomial and reduced coefficient.
    """
    no_lam = (0,) * len(levels)
    lam = "\t" + fmt_ints(no_lam) + "\t"
    # by denominator, then numerator: the reduced coefficient and its text
    reduced = {}
    for negz in range(first, last + 1):
        ztext = str(-negz) + "\t"
        for mono, size, tree in trees:
            mtext = fmt_ints(mono) + lam
            want = negz - size + top
            for xexp, xtext, weight, leaf in _choices(levels, 0, want, tree):
                sector, c, den, stext = leaf
                denom = den * weight
                by_c = reduced.get(denom) or reduced.setdefault(denom, {})
                hit = by_c.get(c)
                if hit is None:
                    q = Fraction(c, denom)
                    hit = by_c[c] = q, "%d/%d" % (q.numerator, q.denominator)
                text = f"{ztext}{xtext or '-'}{stext}{mtext}{hit[1]}"
                yield negz, mono, xexp, sector, no_lam, hit[0], text


def extended_rows(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    m: int,
    cap: int,
    z_floor: int | None = -1,
    roots: RootData | None = None,
) -> tuple[SeriesContext, Iterator[tuple]]:
    """(ctx, classes): the extended series of the root stack at the orders
    ``roots``, or its infinite-order limit (``roots`` None), with contact
    orders 1..m, as (beta, rows) per curve class in lex order, the class's
    terms an iterator of :func:`~rootstack_gw.series.print_row` rows, each
    with its record text after the class, in print order, to be read before
    the next class.  Every refusal comes first, so the iterator never raises.

    A contact vector k multiplies the body of its net shifts s_i = d_i -
    sum_j j k_ij (:func:`~rootstack_gw.ifunctions._body_chain`, in the sector
    of the negated shifts) by prod x^k / (prod k! z^|k|).  One exact bound
    keeps the sum finite: a vector whose total |k| exceeds the highest
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
    order of the shift tuples, when the class is reached, each on the
    class's one product over all but the last divisor at its shifts there;
    only their nonzero cells are kept, by monomial and shift, with their
    texts.  The contact monomial is attached by moving a body cell to
    z-power zpow - |k|, its coefficient the cell's integer numerator over
    the chain's denominator times prod k!, reduced and written once per
    distinct pair.
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
    budgets = {}  # by class: (reach, budget, intersection numbers)
    for beta in enumerate_curve_classes(X, cap):
        # the target slice's top z-power less the floor
        reach = 1 - ctx.beta_degree(beta) - floor
        degs = arrangement.degrees(beta)
        # a divisor's cost exceeds T_i less its weight degree by at most d_i w_i1
        spread = sum(d * c[0] for d, c in zip(degs, costs))
        budgets[beta] = reach, reach * scale + spread, degs
    _check_contact_budget(costs, [budget for _, budget, _ in budgets.values()])
    # the last divisor and its root order, None at infinite order
    last, r_last = arrangement.divisors[-1], roots and roots[-1]

    def classes():
        contact_cache = {}  # by (divisor, budget)
        meets = {}  # by the sector's support
        for beta, (reach, budget, degs) in budgets.items():
            levels = []
            for i in range(n):
                if (i, budget) not in contact_cache:
                    contact_cache[(i, budget)] = _contact_vectors(i, costs[i], budget)
                r = None if roots is None else roots[i]
                levels.append(_level(contact_cache[(i, budget)], degs[i], r))
            # by monomial, nested dicts by shift down to the leaves (sector,
            # numerator, den, sector text) of the bodies' nonzero cells
            # partial: the bodies' products over all but the last divisor
            trees, partial = {}, {}
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
                head = shifts[:-1]
                if head not in partial:
                    partial[head] = _body_chain(X, arrangement, beta, head, roots)
                shift = shifts[-1]
                chain = _divisor_weight(partial[head], last, beta, shift, r_last)
                cells = chain.cells()
                if not cells:
                    continue
                sector_text = "\t" + fmt_ints(sector) + "\t"
                for mono, c in cells.items():
                    node = trees.setdefault(mono, {})
                    for s in head:
                        node = node.setdefault(s, {})
                    node[shift] = (sector, c, chain.den, sector_text)
                first = min(first, least + min(map(sum, cells)) - top)
            ordered = [(mono, sum(mono), trees.pop(mono)) for mono in sorted(trees)]
            yield beta, _class_rows(levels, ordered, top, first, -floor)
            del ordered  # the rows alone hold the cells, freed before the next class

    return ctx, classes()


def _rows_series(ctx, classes) -> GradedSeries:
    """The series of ``classes``, rows as :func:`extended_rows` gives them:
    within the cap, at or above the floor, every coefficient nonzero."""
    out = {}
    for beta, rows in classes:
        for negz, mono, xexp, sector, lam, c, _ in rows:
            out[TermKey(beta, -negz, xexp, sector, mono, lam)] = c
    return GradedSeries._trusted(ctx, out)
