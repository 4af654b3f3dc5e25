"""The derived-artifact store: a cache copy is read before the packaged
one, and a tampered copy is refused."""

import os

import pytest

from octicmoduli import store
from octicmoduli.errors import CacheCorrupt

SYZYGIES = "syzygies-R1..R5"


def _serialized(named_polys):
    return [(name, poly.serialize()) for name, poly in named_polys]


def _edit_a6(lines):
    """The coefficient 1/405 of A6 edited to 2/405, header intact."""
    assert lines[1].startswith("A6 | 6; 3,0,0,0,0,0,0,0,0: 1/405;")
    return [lines[0], lines[1].replace(": 1/405;", ": 2/405;", 1)] + lines[2:]


@pytest.mark.parametrize("tamper, message", [
    (lambda lines: lines[1:], "missing header"),
    (lambda lines: ["# octicmoduli "] + lines[1:], "malformed header"),
    (lambda lines: ["# octicmoduli %s %s" % ("0" * 16, SYZYGIES)]
     + lines[1:], "hash mismatch"),
    (lambda lines: [" ".join(lines[0].split()[:4])] + lines[1:],
     "missing body digest"),
    (_edit_a6, "body digest mismatch"),
], ids=["missing-header", "malformed-header", "hash-mismatch",
        "missing-digest", "edited-body"])
def test_read_artifact_refuses_a_tampered_copy(monkeypatch, tmp_path,
                                               tamper, message):
    """A copy with no header, a header without a key, a key that is not
    the identifier's, a header without the body digest, or a body edited
    under an intact header raises CacheCorrupt; the intact copy reads as
    the packaged file."""
    name = store.artifact_filename(SYZYGIES)
    with open(os.path.join(store.data_dir(), name)) as fh:
        lines = fh.read().splitlines()
    monkeypatch.setattr(store, "_override_dir", str(tmp_path))
    packaged = _serialized(store.read_artifact(SYZYGIES))
    assert len(packaged) == len(lines) - 1
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    assert _serialized(store.read_artifact(SYZYGIES)) == packaged
    path.write_text("\n".join(tamper(lines)) + "\n")
    with pytest.raises(CacheCorrupt, match=message):
        store.read_artifact(SYZYGIES)
