"""Fixtures shared by every test module."""
import pytest

from zetapoly import mahler, polyzeta


@pytest.fixture(autouse=True)
def _fresh_value_memos():
    """Empty the memos of Z values' exact forms and of diagonal gamma
    factors before each test, so that what a test computes, and what a
    patched call in it sees, never depends on the tests run before it."""
    mahler._exact_form.cache_clear()
    polyzeta._G_memo.cache_clear()
