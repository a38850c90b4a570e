"""Fixtures shared by every test module."""
import pytest

from zetapoly import _quadrature, exactnum, mahler, polyzeta


@pytest.fixture(autouse=True)
def _fresh_value_memos():
    """Empty the memos of Z values' exact forms, of diagonal gamma factors,
    of Dirichlet rows and of normal-form products before each test, so that
    what a test computes, and what a patched call in it sees (such as a
    patched ``_normal_form``), never depends on the tests run before it."""
    mahler._exact_form.cache_clear()
    polyzeta._G_memo.cache_clear()
    _quadrature._dirichlet_row.cache_clear()
    exactnum._product.cache_clear()
