"""Fuzzing the loaders and the command line with valid and mutated documents.

Every call must end in exit 0, 1 or 2 and raise nothing.  Exit 2 means a bad
input: stdout stays empty and stderr starts with `error: `, or, for a flag
combination that argparse rejects, with its usage line.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coalsim import (
    DISTRIBUTION_KIND,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    kripke_kind,
)
from coalsim.generators import GeneratorConfig, generate_coalgebra
from coalsim.cli import cli_dispatch
from coalsim.modelio import coalgebra_to_dict

KINDS = (kripke_kind(("p",)), MULTISET_KIND, DISTRIBUTION_KIND, NEIGHBORHOOD_KIND)

COMMANDS = (
    ("check-sim", "{c}", "{d}", "{rel}"),
    ("check-sim", "{c}", "{d}", "{rel}", "--bi", "--json"),
    ("check-sim", "{c}", "{d}", "{rel}", "--n", "2"),
    ("check-sim", "{c}", "{d}", "{rel}", "--up-to-difunctional"),
    ("greatest-sim", "{c}", "{d}"),
    ("greatest-sim", "{c}", "{d}", "--n", "1", "--json"),
    ("behavioural", "{c}", "{d}", "--witness", "{witness}"),
    ("closure", "{rel}"),
    ("closure", "{rel}", "--json"),
    ("eval", "{c}", "s0", "true"),
    ("eval", "{c}", "s0", "~false"),
    ("nstep", "{c}", "{d}", "--n", "1"),
    ("nstep", "{c}", "{d}", "--n", "2", "--json"),
    ("greatest-bisim", "{c}", "{d}"),
    ("greatest-bisim", "{c}", "{d}", "--n", "1"),
    ("tbisim", "{c}", "{d}", "{rel}", "--json"),
    ("tbisim", "{c}", "{d}", "{rel}", "--up-to-difunctional"),
)
# Flag combinations that argparse rejects, with its usage line, before any
# document is read.
USAGE_ERRORS = (
    ("check-sim", "{c}", "{d}", "{rel}", "--up-to-difunctional", "--n", "1"),
)

# Values that are wrong in most places of a document: wrong types, unknown
# or foreign states, and weights or masses out of range or unparsable.
ODD = st.sampled_from([
    None, True, -1, 0, 2, 10**30, 1.5, "", "zz", "s0", "s9", "p", "inf", "-1/2", "3/2",
    "1/0", "x/y", [], {}, [[]], ["s0"], ["s0", "s0"], {"s0": 1}, {"minimals": 1},
])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda kids: (
        st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3)
    ),
    max_leaves=6,
)
# A fresh copy per draw, so no two places of a document share a list or dict.
NEW_VALUE = (ODD | JSON).map(copy.deepcopy)


def _slots(node, out):
    """Every (container, key) inside a JSON document, in document order."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        out.append((node, key))
        _slots(value, out)
    return out


@st.composite
def mutated(draw, doc):
    """The document with one to three entries replaced, deleted or added.

    Half of the picks go to the document itself or one of its fields, which
    would otherwise be rare among the entries of the transition values.
    """
    holder = [json.loads(json.dumps(doc))]
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(holder, [])
        top = [slot for slot in slots if slot[0] is holder or slot[0] is holder[0]]
        node, key = draw(st.sampled_from(top) | st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete" and node is not holder:
            del node[key]
        elif action == "add" and isinstance(node[key], dict):
            node[key][draw(st.sampled_from(["extra", "atoms", "pairs", "s9"]))] = draw(NEW_VALUE)
        elif action == "add" and isinstance(node[key], list):
            node[key].append(draw(NEW_VALUE))
        else:
            node[key] = draw(NEW_VALUE)
    return holder[0]


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_survives_valid_and_mutated_documents(data):
    kind = data.draw(st.sampled_from(KINDS))
    seeds = data.draw(st.tuples(st.integers(0, 999), st.integers(0, 999)))
    c, d = (generate_coalgebra(GeneratorConfig(seed=s, kind=kind, max_states=3)) for s in seeds)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(c.carrier), st.sampled_from(d.carrier)),
                               max_size=4))
    docs = {"c": coalgebra_to_dict(c), "d": coalgebra_to_dict(d),
            "rel": {"pairs": [list(p) for p in pairs]}}
    target = data.draw(st.sampled_from([None, "c", "d", "rel"]))
    if target is not None:
        docs[target] = data.draw(mutated(docs[target]))
    command = data.draw(st.sampled_from(COMMANDS + USAGE_ERRORS))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"witness": os.path.join(tmp, "witness.json")}
        for name, doc in docs.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch([arg.format(**paths) for arg in command])
    assert code in (0, 1, 2), (command, docs)
    if command in USAGE_ERRORS:
        assert code == 2 and out.getvalue() == "", (command, docs)
        assert err.getvalue().startswith("usage: "), (command, err.getvalue())
    elif code == 2:
        assert out.getvalue() == "", (command, docs)
        assert err.getvalue().startswith("error: "), (command, docs, err.getvalue())
