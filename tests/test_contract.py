"""Every output matches the committed contract (see ``contract.py``).

The test only reads ``contract.json``; ``python tests/contract.py --write``
is the one way to regenerate it.
"""

import json

import pytest

from contract import CLI_RUNS, CONTRACT, LIBRARY, cli_digests, library_digests


@pytest.fixture(scope="module")
def pinned():
    return json.loads(CONTRACT.read_text())


def test_contract_names_every_instance_and_run(pinned):
    assert sorted(pinned["library"]) == sorted(LIBRARY)
    assert sorted(pinned["cli"]) == sorted(CLI_RUNS)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_outputs(pinned, name):
    assert library_digests(name) == pinned["library"][name]


def test_cli_outputs(pinned, tmp_path):
    assert cli_digests(tmp_path) == pinned["cli"]
