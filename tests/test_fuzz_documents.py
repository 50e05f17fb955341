"""A derandomized sample of the document fuzz property (fuzz_documents.py,
which also runs it at length)."""

import pytest
from hypothesis import settings

from fuzz_documents import build_fixture, fuzz_property


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    build_fixture(root)
    return root


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_changed_documents_exit_cleanly(fixture):
    settings(max_examples=100, deadline=None, derandomize=True,
             database=None)(fuzz_property(fixture))()
