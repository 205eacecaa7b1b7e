"""Hostile-input fuzz of every subcommand.

Each example takes the input files of one subcommand, read from the
`tests/data` fixtures, mutates one of them -- a value swapped for one of
another type, a key or an element deleted, a huge or over-long number, a
value nested deeply -- and runs the command in this process.  Whatever the
input, the command must end in exit 0, 1 or 2 with no traceback, exit 1 only
from `verify`, and within a few seconds: its inputs are a few kilobytes.
"""

import contextlib
import copy
import io
import json
import os
import signal
import tempfile
import traceback

from hypothesis import HealthCheck, example, given, settings, strategies as st

from eulercert.cli import run

DATA = os.path.join(os.path.dirname(__file__), "data")


def _fixture(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


CF, CF2 = _fixture("link2d_F.json"), _fixture("link2d_G.json")
SHEAF, SHEAF2 = _fixture("shifts_F.json"), _fixture("shifts_G.json")
CERT = _fixture("link3dline.cert.json")
CERT_V2 = _fixture("link3dline.v2.cert.json")  # the same certificate, each flag one block
POLYTOPE = CF["terms"][0]["polytope"]
MAP = {"matrix": [["1", "2"]], "offset": ["1/2"]}

# argv with file slots 0, 1, ... and the documents that fill them
COMMANDS = {
    "integrate": (["integrate", 0], [CF]),
    "oracle-integrate": (["oracle-integrate", 0], [CF]),
    "pushforward": (["pushforward", 0, "--map", 1], [CF, MAP]),
    "chi": (["chi", 0], [SHEAF]),
    "flag": (["flag", 0, "--center", "1/2,1/2", "--steps", "2"], [POLYTOPE]),
    "bound": (["bound", 0, 1], [SHEAF, SHEAF2]),
    "concentrate": (["concentrate", 0, "--epsilon", "1/2"], [CF]),
    "link": (["link", 0, 1, "--epsilon", "1/2"], [CF, CF2]),
    "verify": (["verify", 0], [CERT]),
    "verify-v2": (["verify", 0], [CERT_V2]),
    "probe": (["probe", 0, "--metric", "gap", "--schedule", "1/2,1/4"], [CF]),
}

DEEP = "@@deep@@"  # spliced into the text as 100,000 nested lists
TWEAKS = ["0", "1/3", "-2", 1, 2]  # in place of a leaf, often still well formed
SWAPS = [None, True, False, 0, -1, 2.5, "x", "", [], {}, [[]], {"vertices": []}]
HUGE = [
    "1e-3000000",
    "1" + "0" * 1001,
    "1/" + "7" * 999,
    "-1e999",
    "1e999",
    10**4000,
    2**63,
    1e308,
    float("inf"),
    float("nan"),
]
SECONDS = 5


def _paths(node, path=()):
    """(path, node) for every node of a JSON document, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(doc, path, kind, value):
    """The document with the node at `path` deleted or replaced by `value`."""
    if not path:
        return {} if kind == "delete" else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def _mutations(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["tweak", "tweak", "tweak", "swap", "swap", "delete", "huge", "deep"]))
        paths = [p for p, node in _paths(doc) if kind != "tweak" or not isinstance(node, (dict, list))]
        path = draw(st.sampled_from(paths or [()]))
        value = {"tweak": TWEAKS, "swap": SWAPS, "huge": HUGE, "deep": [DEEP], "delete": [None]}[kind]
        doc = _mutate(doc, path, kind, draw(st.sampled_from(value)))
    return doc


class _Overtime(Exception):
    pass


def _alarm(signum, frame):
    raise _Overtime()


def _run(argv):
    """Exit code, stdout and stderr of one command run in this process, or
    the traceback of what escaped it."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
    except _Overtime:
        raise AssertionError(f"{argv[0]} ran over {SECONDS} s") from None
    except Exception:
        return None, out.getvalue(), traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    docs = list(COMMANDS[command][1])
    slot = draw(st.integers(0, len(docs) - 1))
    docs[slot] = draw(_mutations(docs[slot]))
    return command, docs


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_cases())
@example(("integrate", [{"dimension": 1, "terms": [{"coeff": 1, "polytope": {"vertices": [["1e-3000000"]]}}]}]))
@example(("verify", [_mutate(copy.deepcopy(CERT), ("source", "terms", 0, "polytope", "vertices", 0, 0), "huge", "1e-3000000")]))
@example(("link", [CF, _mutate(copy.deepcopy(CF2), ("terms", 0, "coeff"), "huge", 10**4000)]))
@example(("bound", [SHEAF, _mutate(copy.deepcopy(SHEAF2), ("summands", 0, "multiplicity"), "huge", 10**4000)]))
@example(("chi", [_mutate(copy.deepcopy(SHEAF), ("summands", 0, "outer"), "deep", DEEP)]))
@example(("verify", [_mutate(copy.deepcopy(CERT), ("steps", 0, "bound"), "tweak", "0")]))
@example(("verify", [_mutate(copy.deepcopy(CERT), ("steps", 1, "F"), "swap", SHEAF)]))
@example(("verify-v2", [_mutate(copy.deepcopy(CERT_V2), ("steps", 0, "F", "summands", 0, "flag", "steps"), "huge", 10**4000)]))
@example(("verify-v2", [_mutate(copy.deepcopy(CERT_V2), ("steps", 0, "F", "summands", 0, "flag"), "swap", [])]))
def test_hostile_input_ends_in_a_clean_exit(case):
    command, docs = case
    argv, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"in{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000))
        code, out, err = _run([paths[a] if isinstance(a, int) else a for a in argv])
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    assert code != 1 or argv[0] == "verify"
    if code == 2:
        assert err.startswith("error: ")
