import os
import subprocess
import sys
from pathlib import Path

import pytest

from pulse_squeeze import blas
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


def test_library_loaded_after_first_use_is_pinned():
    # scipy's OpenBLAS loads with the first scipy.linalg import, which a run
    # may make after one_blas_thread has already probed numpy's.
    script = (
        "import sys\n"
        "from pulse_squeeze.blas import blas_threads, one_blas_thread\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "with one_blas_thread():\n"
        "    pass\n"
        "import scipy.linalg\n"
        "before = blas_threads()\n"
        "assert len(before) == 2, before\n"
        "with one_blas_thread():\n"
        "    inside = blas_threads()\n"
        "assert inside == dict.fromkeys(before, 1), inside\n"
        "assert blas_threads() == before, blas_threads()\n"
    )
    src = str(Path(blas.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


@pytest.mark.parametrize("setting", [None, "2"])
def test_library_first_loaded_inside_the_block_starts_on_one_thread(setting):
    # The block sets OPENBLAS_NUM_THREADS to 1, which an OpenBLAS reads when
    # it loads, and puts the caller's value back on exit.
    script = (
        "import os, sys\n"
        "from pulse_squeeze.blas import blas_threads, one_blas_thread\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "before = os.environ.get('OPENBLAS_NUM_THREADS')\n"
        "with one_blas_thread():\n"
        "    assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
        "    import scipy.linalg\n"
        "    inside = blas_threads()\n"
        "assert len(inside) == 2 and set(inside.values()) == {1}, inside\n"
        "assert os.environ.get('OPENBLAS_NUM_THREADS') == before, before\n"
    )
    src = str(Path(blas.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
