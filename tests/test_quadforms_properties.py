"""Property tests for the anisotropic kernel over Q (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.quadforms import (  # noqa: E402
    is_isotropic,
    qf,
    witt_class,
    witt_equal,
)

entry = st.integers(-60, 60).filter(bool)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.lists(entry, min_size=1, max_size=8))
def test_kernel_is_anisotropic_and_witt_equal(diag):
    q = qf(diag)
    k = witt_class(q).anis
    assert k.dim <= q.dim and k.dim % 2 == q.dim % 2
    assert k.dim == 0 or not is_isotropic(k)
    assert witt_equal(q, k)
