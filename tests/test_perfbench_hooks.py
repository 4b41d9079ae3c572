import importlib.util
from pathlib import Path

from pulse_squeeze import cli

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_traced_hooks_resolve():
    # perfbench/child.py wraps these attributes by name; a renamed hook would
    # stop the traced benchmark with AttributeError.
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    hooks = [(module, attr) for module, attr, _span in child.LAYER_CALLS]
    hooks += [(cli, "_sweep_worker"), (cli, "validate_config"), (cli, "main")]
    for module, attr in hooks:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
