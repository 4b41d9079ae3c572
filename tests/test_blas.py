import pytest

from pulse_squeeze.blas import blas_threads, one_blas_thread


def test_one_blas_thread_pins_every_pool_and_restores():
    before = blas_threads()
    with one_blas_thread():
        assert all(n == 1 for n in blas_threads().values())
    assert blas_threads() == before


def test_restores_after_an_exception():
    before = blas_threads()
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError("inside the block")
    assert blas_threads() == before
