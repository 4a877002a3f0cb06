import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))

import pytest

from trihex import counting


@pytest.fixture(autouse=True)
def fresh_count_rows():
    # `counting.report` holds its rows across calls, so each test starts cold:
    # one that counts factorize calls sees them, and a row an earlier test
    # computed from a stand-in is gone
    counting.report.cache_clear()
