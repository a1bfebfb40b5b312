"""`values.integer_weights` against plain `Fraction` arithmetic.

Every weighted kernel reads its weights through `integer_weights`: the mass
sum of a distribution in `validate`, the subset sums of `prob_grid`, the
violator of `hall_violator`, the plans of `couple` and the projections of
`verify_coupling`.  Here each is recomputed on seeded random multisets
(with infinite weights) and distributions (with coprime denominators) by
`Fraction` sums and subset enumeration, with no integer scaling at all.
"""

import random
from fractions import Fraction
from itertools import combinations

from coalsim import (
    DISTRIBUTION_KIND,
    INF,
    MULTISET_KIND,
    Coalgebra,
    dist_value,
    multiset_value,
    relation,
    t_bisimulation_check,
    verify_coupling,
)
from coalsim.behaviour import Coupling
from coalsim.liftings import hall_violator, prob_grid
from coalsim.transport import couple
from coalsim.values import integer_weights

from oracle_helpers import hall_violator_reference

LABELS = [f"s{i}" for i in range(6)]
PRIMES = [2, 3, 5, 7, 11, 13]


def _multiset(rng, support):
    p = rng.choice((0, 0.2, 0.4))
    return multiset_value({s: INF if rng.random() < p else rng.randint(1, 6) for s in support})


def _dist(rng, support, normalized):
    """Masses a/p over distinct primes p; normalized ones are divided by their total."""
    raw = [Fraction(rng.randint(1, 3), p) for p in rng.sample(PRIMES, len(support))]
    total = sum(raw) if normalized else 1
    return dist_value({s: r / total for s, r in zip(support, raw)})


def _value(rng, dist, normalized=False):
    support = rng.sample(LABELS, rng.randint(0, 5))
    return _dist(rng, support, normalized) if dist else _multiset(rng, support)


def _mass(t, states):
    """t's weight on the states, by `Fraction` sums; infinity absorbs."""
    weights = [w for s, w in t.entries if s in states]
    return INF if INF in weights else sum(weights, Fraction(0))


def _subsets(items):
    return [frozenset(c) for k in range(len(items) + 1) for c in combinations(items, k)]


def _split(rng, total, states):
    """A multiset of the given total over some of the states, in random parts."""
    cuts = sorted(rng.randint(0, total) for _ in range(len(states) - 1))
    return multiset_value(dict(zip(states, (b - a for a, b in zip([0, *cuts], [*cuts, total])))))


def _image(a, img):
    return frozenset().union(*(img[x] for x in a))


def test_integer_weights_are_the_weights_times_one_common_denominator():
    rng = random.Random(101)
    for trial in range(600):
        dist = trial % 2 == 1
        values = [_value(rng, dist) for _ in range(rng.randint(1, 4))]
        den, rows = integer_weights(*values)
        assert len(rows) == len(values)
        if not dist:
            assert den == 1 and rows == [dict(t.entries) for t in values]
            continue
        masses = [q for t in values for _, q in t.entries]
        # den is a common denominator, and no smaller one is.
        assert all((q * den).denominator == 1 for q in masses)
        assert all(any((q * (den // p)).denominator != 1 for q in masses) for p in PRIMES if den % p == 0)
        for t, row in zip(values, rows):
            assert list(row) == [z for z, _ in t.entries]
            assert all(type(w) is int and Fraction(w, den) == q for w, (_, q) in zip(row.values(), t.entries))


def test_the_mass_sum_check_is_the_fraction_sum():
    rng = random.Random(103)
    verdicts = set()
    for trial in range(600):
        t = _value(rng, True, normalized=trial % 2 == 0)
        ok = t.well_formed(frozenset(LABELS), frozenset())
        assert ok == (sum((q for _, q in t.entries), Fraction(0)) == 1)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_prob_grid_is_every_fraction_subset_sum():
    rng = random.Random(107)
    for _ in range(150):
        carrier = rng.sample(LABELS, rng.randint(1, 4))
        transition = {}
        for s in carrier:
            support = rng.sample(carrier, rng.randint(1, len(carrier)))
            transition[s] = _dist(rng, support, normalized=True)
        c = Coalgebra(DISTRIBUTION_KIND, carrier, transition)
        expected = {_mass(t, a) for t in transition.values() for a in _subsets([z for z, _ in t.entries])}
        assert prob_grid([c]) == tuple(sorted(expected | {Fraction(0), Fraction(1)}))


def test_hall_violator_is_a_fraction_violator_exactly_when_one_exists():
    rng = random.Random(109)
    seen = {"cut": 0, "none": 0, "infinite": 0}
    for trial in range(1200):
        dist = trial % 2 == 1
        t, u = _value(rng, dist), _value(rng, dist)
        p = rng.choice((0.2, 0.5, 0.8))
        img = {x: frozenset(y for y, _ in u.entries if rng.random() < p) for x in LABELS}
        short = [a for a in _subsets([x for x, _ in t.entries]) if _mass(t, a) > _mass(u, _image(a, img))]
        cut = hall_violator(t, u, img)
        assert cut == hall_violator_reference(t, u, img)
        if cut is None:
            assert short == []
            seen["none"] += 1
            continue
        a, ta, ub = cut
        assert a in short and ta == _mass(t, a) and ub == _mass(u, _image(a, img))
        seen["infinite" if ta == INF else "cut"] += 1
    assert min(seen.values()) >= 50, seen


def test_couple_plans_are_fraction_couplings_exactly_when_gale_allows_one():
    """A plan exists exactly when the totals agree and every set of rows
    reaches as much weight as it holds (Gale's theorem); a plan found moves
    each row's weight within its allowed columns, onto each column's weight."""
    rng = random.Random(113)
    seen = {"plan": 0, "totals differ": 0, "short": 0}
    for trial in range(1200):
        same_total = trial % 3 != 0
        if trial % 2:
            t = _dist(rng, rng.sample(LABELS, rng.randint(1, 5)), normalized=True)
            u = _dist(rng, rng.sample(LABELS, rng.randint(1, 5)), normalized=same_total)
        else:
            t = multiset_value({s: rng.randint(1, 4) for s in rng.sample(LABELS, rng.randint(0, 4))})
            total = sum(w for _, w in t.entries) + (0 if same_total else rng.randint(1, 2))
            u = _split(rng, total, rng.sample(LABELS, rng.randint(1, 4)))
        p = rng.choice((0.4, 0.7, 1.0))
        allowed = {x: {y for y, _ in u.entries if rng.random() < p} for x, _ in t.entries}
        found = couple(t, u, allowed)
        rows, cols = dict(t.entries), dict(u.entries)
        if _mass(t, rows) != _mass(u, cols):
            assert found is None
            seen["totals differ"] += 1
            continue
        gale = all(_mass(t, a) <= _mass(u, _image(a, allowed)) for a in _subsets(list(rows)))
        assert (found is not None) == gale
        if found is None:
            seen["short"] += 1
            continue
        den, plan = found
        cells = {q: Fraction(w, den) for q, w in plan.items()}
        assert all(w > 0 and y in allowed[x] for (x, y), w in cells.items())
        assert all(sum((w for (a, _), w in cells.items() if a == x), Fraction(0)) == v for x, v in rows.items())
        assert all(sum((w for (_, b), w in cells.items() if b == y), Fraction(0)) == v for y, v in cols.items())
        seen["plan"] += 1
    assert min(seen.values()) >= 50, seen


def _projections_match(v, t, u):
    """Do v's weights sum to t and to u along the two projections, by `Fraction` sums?"""
    left, right = {}, {}
    for (a, b), w in v.entries:
        left.setdefault(a, []).append(w)
        right.setdefault(b, []).append(w)
    sums = ({s: INF if INF in ws else sum(ws, Fraction(0)) for s, ws in side.items()} for side in (left, right))
    return next(sums) == dict(t.entries) and next(sums) == dict(u.entries)


def test_verify_coupling_is_the_fraction_projection_check():
    """Couplings found on random models verify.  Each is then forged at one
    pair: a share swapped between two cells' rows (the projections keep),
    a share moved to another cell, or a weight made infinite; the forgery
    verifies exactly when its `Fraction` projections still match."""
    rng = random.Random(127)
    verdicts = {True: 0, False: 0}
    for trial in range(300):
        dist = trial % 2 == 1
        carrier = LABELS[: rng.randint(1, 4)]
        total = rng.randint(1, 6)  # every multiset holds the same total, so the full relation couples
        transition = {}
        for x in carrier:
            support = rng.sample(carrier, rng.randint(1, len(carrier)))
            transition[x] = _dist(rng, support, normalized=True) if dist else _split(rng, total, support)
        c = Coalgebra(DISTRIBUTION_KIND if dist else MULTISET_KIND, carrier, transition)
        s = relation(carrier, carrier, [(x, y) for x in carrier for y in carrier])
        coupling = t_bisimulation_check(s, c, c)
        assert coupling is not None and verify_coupling(coupling, s, c, c)
        pair, v = rng.choice(coupling.values)
        if not v.entries:
            continue
        weights = dict(v.entries)
        (x1, y1), w1 = rng.choice(v.entries)
        (x2, y2), w2 = rng.choice(v.entries)
        share = min(w1, w2) / 2 if dist else 1
        move = rng.choice(("swap", "move", "infinite" if not dist else "move"))
        if move == "swap" and (x1, y1) != (x2, y2):
            for cell, sign in (((x1, y1), -1), ((x2, y2), -1), ((x1, y2), 1), ((x2, y1), 1)):
                weights[cell] = weights.get(cell, 0) + sign * share
        elif move == "infinite":
            weights[x1, y1] = INF
        else:
            other = rng.choice(sorted(s.pairs))
            weights[x1, y1] -= share
            weights[other] = weights.get(other, 0) + share
        moved = (dist_value if dist else multiset_value)(weights)
        forged = Coupling(tuple((p, moved if p == pair else value) for p, value in coupling.values))
        expected = _projections_match(moved, c.transition[pair[0]], c.transition[pair[1]])
        assert verify_coupling(forged, s, c, c) == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 30, verdicts
