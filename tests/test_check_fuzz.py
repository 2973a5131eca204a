"""Fuzzing the checker: one corrupted field of a valid certificate at a time.

Each example takes a pinned certificate, picks one node of its JSON
tree and replaces it with a value of the wrong type, a NaN or infinite
hex string, a huge integer or an unknown status, deletes it, or swaps two
entries of a list (inverting an interval's bounds, say).  Whatever the
file then holds, `check_file` must return a CheckResult rather than
raise, and a result that is not ok must carry a diagnosis.
"""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tancert.certifier import CheckResult, check_file

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# bs_lower and qi_upper have both endpoint proofs; lemma_phi vanishes to the
# highest order at 0
SOURCES = {
    cid: json.loads((GOLDEN / f"cert-{cid}.json").read_text())
    for cid in ("bs_lower", "qi_upper", "lemma_phi")
}

BAD_VALUES = st.one_of(
    st.sampled_from(
        [None, True, "", [], {}, "banana", "nan", "-nan", "inf", "-inf", "0x1p+2000",
         "0x1.zzp+0", 10**30, -(10**30), 2**64, ["0x0p+0"]]
    ),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
)


def _paths(node, prefix=()):
    """Key paths of every node below the root."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_check_file_survives_one_corrupted_field(data, tmp_path_factory):
    doc = json.loads(json.dumps(SOURCES[data.draw(st.sampled_from(sorted(SOURCES)))]))
    *parents, key = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for k in parents:
        parent = parent[k]
    action = data.draw(st.sampled_from(["replace", "delete", "swap"]))
    if action == "swap" and isinstance(parent[key], list) and len(parent[key]) >= 2:
        node = parent[key]
        i, j = data.draw(st.lists(st.integers(0, len(node) - 1), min_size=2, max_size=2, unique=True))
        node[i], node[j] = node[j], node[i]
    elif action == "delete":
        del parent[key]
    else:
        parent[key] = data.draw(BAD_VALUES)
    path = tmp_path_factory.getbasetemp() / "fuzzed-cert.json"
    path.write_text(json.dumps(doc))
    result = check_file(path)
    assert isinstance(result, CheckResult)
    assert result.ok or result.diagnoses, result
