"""The benchmark's timing shims still find every name they wrap.

bench/tracing.py patches matpencil functions by name and raises
AttributeError on a missing one, so a rename in the package would break
`bench/run.py --trace 1` without this test.  `examples 3` certifies on
its witnesses and reaches rref through `trim`; `examples 2` is a
rejection, so it still reaches `smith_form`.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from matpencil.cli import main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_shims_install_and_count_an_example():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            for number in ("2", "3"):
                assert main(["examples", number]) == 0
        counts = tracer.take()
    finally:
        tracer.uninstall()
    assert counts["eigenstructure.smith_calls"] > 0
    assert counts["exactla.rref_calls"] > 0
