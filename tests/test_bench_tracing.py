"""The benchmark's timing shims still find every name they wrap.

bench/tracing.py patches matpencil functions by name and raises
AttributeError on a missing one, so a rename in the package would break
`bench/run.py --trace 1` without this test.  `examples 3` certifies on
its factor certificate and reaches rref through `trim`; `examples 2`
verifies its bundled witnesses over QQ[l], so it reaches `pm_det`.  No path reaches `smith_form`, but its
shim must still resolve.  A solve -> build ->
recover pipeline checks that the walks' eliminations and the normal-rank
samples still reach the shimmed `exactla.rref`.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from matpencil.cases import case2_poly
from matpencil.cli import main
from matpencil.matpoly import dump_json

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
    assert counts["qpoly.pm_det_calls"] > 0
    assert counts["exactla.rref_calls"] > 0


def test_walk_eliminations_pass_through_the_traced_rref(tmp_path):
    # solve -> build -> recover: the index walks, the normal-rank samples
    # and the walk's nullspaces must all reach the shimmed exactla.rref
    p = tmp_path / "P.json"
    p.write_text(dump_json(case2_poly().to_json_dict()))
    member = tmp_path / "L.json"
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", str(p)]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["build", str(p), "--side", "l1",
                         "--companion"]) == 0
        member.write_text(out.getvalue())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["recover", str(member), str(p), "--mode",
                         "glin_L1"]) == 0
        counts = tracer.take()
    finally:
        tracer.uninstall()
    assert counts["exactla.rref_calls"] > 0
    assert counts["matpoly.normal_rank_calls"] > 0
    assert counts["minimal.minimal_basis_calls"] > 0
