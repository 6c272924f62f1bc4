"""The per-layer tracer finds every function it binds by name.

``perfbench/tracing.py`` rebinds votelab functions listed as
(module, attribute) pairs.  A rename in votelab would silently drop a layer
from ``perfbench/run.py --trace``; this test reads the lists and fails
instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _span_tables():
    spec = importlib.util.spec_from_file_location("_votelab_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CALL_SPANS, module.GENERATOR_SPANS


def test_every_traced_name_resolves_on_votelab():
    call_spans, generator_spans = _span_tables()
    targets = [
        (span, mod_name, attr)
        for table in (call_spans, generator_spans)
        for span, pairs in table.items()
        for mod_name, attr in pairs
    ]
    assert targets
    for span, mod_name, attr in targets:
        module = importlib.import_module(f"votelab.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{span}: votelab.{mod_name}.{attr} is missing"
