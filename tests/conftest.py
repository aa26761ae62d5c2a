"""Fixtures shared by the test files: the bundled corpus in its two modes,
run once per session. A test may read a run's checker and results but not
run commands on that checker."""

import pytest

from lttw.corpus import MANIFEST_IMPREDICATIVE, check_corpus


@pytest.fixture(scope="session")
def predicative():
    return check_corpus(strict=False)


@pytest.fixture(scope="session")
def impredicative():
    return check_corpus(MANIFEST_IMPREDICATIVE, mode="impredicative",
                        strict=False)
