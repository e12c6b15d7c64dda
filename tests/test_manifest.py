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

    Parametrix and density-check outputs are left out: their last digits
    change with numpy's CPU dispatch tier (np.exp and np.log give different
    last bits on X86_V4 than on X86_V3), so their digests hold on one host
    only.
    With X86_V4 off, the README kinetic density-check at 1e5 samples wrote
    C_fit 1.1514279308368105 against 1.1514279308368103.  They join the set
    once a test compares them across dispatch tiers.  Every file in the set
    had the same digest with X86_V4, and with X86_V3 and X86_V4, switched
    off, but control-kinetic/concentration.json: its damped drift calls
    np.tanh, and with X86_V3 off its reference_mean changed in the last
    digit.
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
