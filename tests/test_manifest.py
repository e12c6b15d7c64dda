import json

import pytest
from manifest import COMMANDS, MANIFEST, SAME_RUN, run_all


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("manifest"))


def _body_digest(digests, name):
    return digests.get(name, {}).get("body")


def test_outputs_match_the_manifest(digests):
    """Every file the manifest commands write has the digest in
    tests/manifest.json.

    Parametrix outputs and CK density-check are left out: their last digits
    change with numpy's CPU dispatch tier (np.exp and np.log give different
    last bits on X86_V4 than on X86_V3), so their digests hold on one host
    only.  They join the set once a test compares them across dispatch
    tiers.  Hist density-check fits its envelope in log space with the
    package's own log, and is in the set.  Every file in the set had the
    same digest with X86_V4, and with X86_V3 and X86_V4, switched off, but
    concentration.json of control-kinetic and control-kinetic-abs: their
    damped drift calls np.tanh, and with X86_V3 off their reference_mean
    changed in the last digit.
    """
    got = digests
    want = json.loads(MANIFEST.read_text())
    assert {name.split("/")[0] for name in got} == set(COMMANDS)
    differ = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    body = [name for name in differ if _body_digest(got, name) != _body_digest(want, name)]
    hash_only = [name for name in differ if name not in body]
    assert not differ, (
        f"outputs differ from {MANIFEST.name}: bodies of {body}, config hash alone of "
        f"{hash_only}; if the change is meant, rerun `PYTHONPATH=src python tests/manifest.py` "
        "and explain it in CHANGES.md"
    )


def _files(digests, label):
    """{file name: digest} of the files that command `label` wrote."""
    return {
        name.split("/")[1]: digest
        for name, digest in digests.items()
        if name.split("/")[0] == label
    }


def test_same_run_pairs_write_identical_files(digests):
    """Each SAME_RUN pair writes the same files with the same bytes: the
    config hash covers only the fields a command reads, as the loader stores
    them."""
    for a, b in SAME_RUN:
        assert _files(digests, a) and _files(digests, a) == _files(digests, b), (a, b)
