"""Fuzz of the command line at its file boundary.

Saved set and witness files, in small spaces (F_3^2, F_5^2, F_7^3 and
circular covers of F_13), are mutated by hypothesis and verified
in-process through cli.main.  Whatever the mutation, the exit code is one
of 0, 1, 2, 3 and no exception escapes but argparse's SystemExit(2); a
mutated witness that is accepted is also accepted by the check that needs
no witness: the exhaustive scan for sphere witnesses, diff_cover or
sum_cover for circle witnesses.  A witness of an unknown kind, or with an
entry of another type than its kind names, exits 2 in every mode.
"""

import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from ffkakeya import cli

SAVED = {
    "radius-3^2": ["--p", "3", "--n", "2", "--which", "radius-spherical"],
    "center-5^2": ["--p", "5", "--n", "2", "--which", "center-spherical"],
    "radius-7^3": ["--p", "7", "--n", "3", "--which", "radius-spherical"],
    "center-7^3": ["--p", "7", "--n", "3", "--which", "center-spherical"],
    "circular-radius-13": ["--p", "13", "--which", "circular-prime", "--variant", "radius"],
    "circular-center-13": ["--p", "13", "--which", "circular-prime", "--variant", "center"],
}

# the check that needs no witness, for each witness kind
UNWITNESSED = {
    "radius": ("radius", "exhaustive"),
    "center-coordinate": ("center", "exhaustive"),
    "circular-radius": ("diff-cover", "exhaustive"),
    "circular-center": ("sum-cover", "exhaustive"),
}

KINDS = ["radius", "center-coordinate", "hypersphere", "circular-radius", "circular-center"]
VERIFY_MODES = [("radius", "witness"), ("center", "witness"), ("radius", "exhaustive"),
                ("center", "exhaustive"), ("diff-cover", "exhaustive"),
                ("sum-cover", "exhaustive")]
# strings that int() reads, or nearly: the keys of witness entries go through it
TEXT = st.sampled_from(["", "1", "-1", "01", " 2", "1_0", "+3", "\u0663", "2.0", "1e2", "x"])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(-3, 30), TEXT,
    st.sampled_from(KINDS + [10 ** 9, 2 ** 31 - 1, 2 ** 63, 2 ** 64 + 13, -2 ** 63]))
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids,
                                                              max_size=3),
    max_leaves=6)


def run(*argv) -> int:
    """Exit code of one in-process CLI call; any other escape fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, exc.code
            code = 2
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    return code


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name, args in SAVED.items():
        path = root / f"{name}.json"
        assert run("construct", *args, "--out", path) == 0
        docs[name] = json.loads(path.read_text())
    return root, docs


def paths(node, prefix=()):
    """The path of every node below the root, as tuples of keys and indices."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutate(data, doc):
    """Nudge, delete or replace one to three nodes of a copy of doc: an
integer nudged by up to 2 or set to a small rank keeps most files well
formed, and any JSON value in place of a node breaks them."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        every = list(paths(doc))
        witness = [p for p in every if p[0] == "witness"]
        path = data.draw(st.sampled_from(witness) | st.sampled_from(every)
                         if witness else st.sampled_from(every))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = data.draw(st.sampled_from(["nudge", "nudge", "rank", "delete", "replace"]))
        if action == "delete":
            del parent[key]
        elif action == "nudge" and type(parent[key]) is int:
            parent[key] += data.draw(st.integers(-2, 2))
        elif action == "rank":
            parent[key] = data.draw(st.integers(0, 6))
        else:
            parent[key] = data.draw(VALUES)
    return doc


def needs_a_large_mask(doc) -> bool:
    """Whether the header names a space of 10^6 to 2^40 points.  The point
    cap admits such a set, whose mask takes up to a terabyte; past the cap
    the CLI exits 3 before it allocates."""
    p, k, n = doc.get("p"), doc.get("k", 1), doc.get("n")
    if not all(type(v) is int and v >= 1 for v in (p, k, n)):
        return False
    return k * n <= 40 and 10 ** 6 < p ** (k * n) <= 2 ** 40


def check_file(path, doc):
    """Exit codes stay in range, and an accepted witness passes the
    witness-free check of its kind."""
    path.write_text(json.dumps(doc))
    for prop, mode in VERIFY_MODES:
        code = run("verify", "--file", path, "--property", prop, "--mode", mode)
        if code == 0 and mode == "witness":
            assert run("verify", "--file", path, "--property", prop) == 0, (prop, doc)
    if run("verify", "--file", path, "--property", "witness") == 0:
        kind = doc["witness"]["kind"]
        if kind in UNWITNESSED:
            prop, mode = UNWITNESSED[kind]
            assert run("verify", "--file", path, "--property", prop, "--mode", mode) == 0, doc


@pytest.mark.parametrize("name", SAVED)
def test_saved_files_verify(saved, name):
    root, docs = saved
    path = root / "as-saved.json"
    check_file(path, docs[name])
    assert run("verify", "--file", path, "--property", "witness") == 0


@pytest.mark.parametrize("name", SAVED)
@settings(max_examples=30)
@given(data=st.data())
def test_mutated_files(saved, name, data):
    root, docs = saved
    doc = mutate(data, docs[name])
    assume(not needs_a_large_mask(doc))
    check_file(root / "mutated.json", doc)


def entry_shapes(q, n):
    """Each entry type as a saved witness stores it, with ranks of F_q^n."""
    rank = st.integers(0, q - 1)
    point = st.lists(rank, min_size=n, max_size=n)
    return {
        "sphere": st.fixed_dictionaries({"center": point, "radius": rank}),
        "hypersphere": st.fixed_dictionaries({"center": point, "direction": point,
                                              "radius": rank}),
        "circle": st.fixed_dictionaries({"center": rank, "radius": rank}),
    }


@pytest.mark.parametrize("name", SAVED)
@settings(max_examples=30)
@given(data=st.data())
def test_witness_not_of_its_kind_exits_two(saved, name, data):
    root, docs = saved
    doc = json.loads(json.dumps(docs[name]))
    witness = doc["witness"]
    if data.draw(st.booleans()):
        witness["kind"] = data.draw((TEXT | st.text(max_size=12)).filter(
            lambda kind: kind not in KINDS))
    else:
        shapes = entry_shapes(doc["q"], doc["n"])
        own = "circle" if witness["kind"].startswith("circular") else "sphere"
        key = data.draw(st.sampled_from(sorted(witness["entries"])))
        foreign = data.draw(st.sampled_from(sorted(shapes.keys() - {own})))
        witness["entries"][key] = data.draw(shapes[foreign])
    path = root / "foreign.json"
    path.write_text(json.dumps(doc))
    for prop, mode in VERIFY_MODES + [("witness", "witness")]:
        assert run("verify", "--file", path, "--property", prop, "--mode", mode) == 2, doc


def test_huge_extension_degree_exits_three_at_once(saved):
    """A set file with k = 10^9 once hung forming p^k; it now meets the
    field cap first."""
    root, docs = saved
    doc = dict(docs["radius-3^2"], k=10 ** 9)
    path = root / "huge-k.json"
    path.write_text(json.dumps(doc))
    assert run("verify", "--file", path, "--property", "radius") == 3
