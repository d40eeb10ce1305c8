"""The benchmark's tracer patches pplr attributes by name; each must exist.

perfbench/tracer.py wraps every ``(module, attribute)`` pair in its
``TARGETS`` list. A refactor that renames or drops one of them would break
only the traced benchmark run, so tier-1 checks that each still resolves.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    missing = []
    for module_name, dotted, span, _ in tracer.TARGETS:
        try:
            owner, attr = tracer._resolve(module_name, dotted)
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{dotted} ({span})")
            continue
        if not callable(target):
            missing.append(f"{module_name}.{dotted} ({span}): not callable")
    assert not missing, "unresolved tracer targets: " + ", ".join(missing)
