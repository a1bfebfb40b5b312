"""Coupling search pinned: the bytes of `tbisim --json`, plain and up to
difunctionality, on one fixed relation per kind, and the couplings of the
search against the closure-based reference on seeded random relations.

Images are sets, so these tests also run under fixed hash seeds: a plan or
a candidate must not depend on the order a set is walked in.
"""

import hashlib
import random
from collections import Counter

import pytest

from coalsim import (
    DISTRIBUTION_KIND,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    InfiniteWeightError,
    auto_signature,
    greatest_bisimulation,
    kripke_kind,
    t_bisim_up_to_difunctionality_check,
    t_bisimulation_check,
)
from coalsim.cli import cli_dispatch
from coalsim.generators import GeneratorConfig, generate_coalgebra, random_relation
from coalsim.modelio import dump_json
from coalsim.relations import difunctional_closure

from oracle_helpers import coupling_reference


def _kripke(succ):
    return {
        "functor": "kripke", "atoms": ["p"], "states": list(succ),
        "transition": {s: {"props": [], "succ": ys} for s, ys in succ.items()},
    }


def _weighted(functor, transition):
    return {"functor": functor, "states": list(transition), "transition": transition}


def _nbhd(minimals):
    return {
        "functor": "neighborhood", "states": list(minimals),
        "transition": {s: {"minimals": ms} for s, ms in minimals.items()},
    }


_MULTISET = {"s0": {"s0": 1, "s1": 3}, "s1": {"s0": 1, "s1": 1, "s2": 2}, "s2": {"s1": 3, "s2": 1}}
_DIST = {
    "s0": {"s0": "1/2", "s1": "1/4", "s2": "1/4"},
    "s1": {"s0": "1/3", "s1": "1/3", "s2": "1/3"},
    "s2": {"s0": "1/2", "s1": "1/2"},
}

# kind -> (left model, right model, relation), each relation not difunctional.
INSTANCES = {
    "kripke": (
        _kripke({"s0": ["s1"], "s1": ["s1", "s2", "s3"], "s2": ["s2"], "s3": ["s1", "s2"]}),
        _kripke({"s0": ["s0", "s1", "s2"], "s1": ["s0", "s1"], "s2": ["s0", "s1"]}),
        {"pairs": [["s0", "s0"], ["s0", "s1"], ["s0", "s2"], ["s1", "s1"], ["s1", "s2"],
                   ["s2", "s1"], ["s3", "s0"], ["s3", "s2"]]},
    ),
    "multiset": (
        _weighted("multiset", _MULTISET),
        _weighted("multiset", _MULTISET),
        {"pairs": [["s0", "s1"], ["s0", "s2"], ["s1", "s0"], ["s1", "s2"], ["s2", "s0"], ["s2", "s1"]]},
    ),
    "distribution": (
        _weighted("distribution", _DIST),
        _weighted("distribution", _DIST),
        {"pairs": [["s0", "s0"], ["s0", "s1"], ["s0", "s2"], ["s1", "s0"], ["s2", "s0"], ["s2", "s2"]]},
    ),
    "neighborhood": (
        _nbhd({
            "s0": [["s0", "s1", "s2"], ["s0", "s1", "s3"]], "s1": [["s0", "s1"], ["s3"]],
            "s2": [["s1"], ["s2"]], "s3": [["s1"]],
        }),
        _nbhd({"s0": [["s2"]], "s1": [["s0", "s1"]], "s2": [["s0"]]}),
        {"pairs": [["s0", "s1"], ["s0", "s2"], ["s1", "s0"], ["s1", "s1"], ["s1", "s2"],
                   ["s2", "s0"], ["s2", "s1"], ["s3", "s0"], ["s3", "s1"]]},
    ),
}

# (kind, up to difunctionality) -> (exit code, sha256 of the stdout of `tbisim --json`);
# c039715c... is '{"couplings": null}\n'.
PINS = {
    ("kripke", False): (1, "c039715c2c0caf62738e70d0b52482956ad33671fd4f539822c3e1888a8dc0cd"),
    ("kripke", True): (0, "6706d2a71bf243208a98dda63e41d9251865a6a55e5fe51a11b6343b2e74808f"),
    ("multiset", False): (1, "c039715c2c0caf62738e70d0b52482956ad33671fd4f539822c3e1888a8dc0cd"),
    ("multiset", True): (0, "2c060483c7ecac1da5c6509cc498da712191c39c0435bb76bfbf31b0aebdf7c9"),
    ("distribution", False): (0, "88827eaa304447fbc1b7e67354a874d593e2a8300e02b487a57f62e7f52b9648"),
    ("distribution", True): (0, "fcbf36a940b540b7e7bb1366275e454a46b64ba46df55aadb210329705cbf8a3"),
    ("neighborhood", False): (1, "c039715c2c0caf62738e70d0b52482956ad33671fd4f539822c3e1888a8dc0cd"),
    ("neighborhood", True): (0, "f6b4f2c2b223ea789defdd00668cde3d3559a24f62c05953d8a0ebce06a87e3b"),
}


@pytest.mark.parametrize("kind", sorted(INSTANCES))
@pytest.mark.parametrize("up_to", [False, True], ids=["plain", "up-to"])
def test_tbisim_json_bytes_are_pinned(tmp_path, capsys, kind, up_to):
    paths = []
    for name, doc in zip("cds", INSTANCES[kind]):
        path = tmp_path / f"{name}.json"
        path.write_text(dump_json(doc), encoding="utf-8")
        paths.append(str(path))
    flags = ["--up-to-difunctional"] if up_to else []
    code = cli_dispatch(["tbisim", *paths, *flags, "--json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == PINS[kind, up_to]


KINDS = (kripke_kind(("p",)), MULTISET_KIND, DISTRIBUTION_KIND, NEIGHBORHOOD_KIND)


def test_couplings_match_the_closure_based_reference():
    """Both checks give the reference's coupling over s and over its closure's pairs."""
    rng = random.Random(131)
    found = Counter()
    for trial in range(400):
        kind = KINDS[trial % 4]
        c, d = (
            generate_coalgebra(GeneratorConfig(seed=trial + k, kind=kind, max_states=4,
                                               allow_infinite=trial % 12 == 1))
            for k in (0, 4000)
        )
        cases = [(random_relation(rng, c, d, density=0.5), c, d), (random_relation(rng, c, c, density=0.4), c, c)]
        if trial % 3 == 0:
            cases.append((greatest_bisimulation(c, c, auto_signature(c, c)), c, c))
        for s, left, right in cases:
            for check, cells in ((t_bisimulation_check, s.pairs),
                                 (t_bisim_up_to_difunctionality_check, difunctional_closure(s).pairs)):
                try:
                    expected = coupling_reference(s, cells, left, right)
                except InfiniteWeightError:
                    with pytest.raises(InfiniteWeightError):
                        check(s, left, right)
                    found["infinite"] += 1
                    continue
                coupling = check(s, left, right)
                if expected is None:
                    assert coupling is None, (s, left, right)
                    found[kind.name, "none"] += 1
                else:
                    assert coupling is not None and list(coupling.values) == expected, (s, left, right)
                    found[kind.name, "coupled"] += 1
    assert len(found) == 9 and min(found.values()) >= 20, found
