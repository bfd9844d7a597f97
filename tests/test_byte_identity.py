"""The column digests of the output-identity recipe in tools/byte_identity.py."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"


@pytest.fixture(scope="module")
def byte_identity():
    spec = importlib.util.spec_from_file_location("byte_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:  # the tool puts perfbench/ on the path to read its workloads
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def digests(byte_identity, tmp_path, text):
    (tmp_path / "out.csv").write_text(text)
    recipe = byte_identity.Recipe(tmp_path, tmp_path)
    recipe.keep_columns("label", "out.csv", "label".__eq__)
    recipe.keep_columns("no-score", "out.csv", "score".__ne__)
    return recipe.hashes


def test_keep_columns_hashes_the_named_columns_in_row_order(byte_identity, tmp_path):
    hashes = digests(byte_identity, tmp_path, "index,label,score\n0,1,0.25\n1,-1,-0.5\n")
    assert hashes["label"] == hashlib.sha256(b"label\n1\n-1").hexdigest()
    assert hashes["no-score"] == hashlib.sha256(b"index,label\n0,1\n1,-1").hexdigest()


def test_label_digest_ignores_score_digits(byte_identity, tmp_path):
    before = digests(byte_identity, tmp_path, "index,label,score\n0,1,0.3319158292397706\n")
    after = digests(byte_identity, tmp_path, "index,label,score\n0,1,0.3319158292397704\n")
    flipped = digests(byte_identity, tmp_path, "index,label,score\n0,-1,0.3319158292397704\n")
    assert before == after
    assert flipped["label"] != after["label"]
