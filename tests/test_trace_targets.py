"""The benchmark's traced run wraps precint's layers by module and attribute
name; a refactor that renames or moves one of them must fail here, not only
in a traced benchmark run."""

from __future__ import annotations

from pathlib import Path

import precint.cli  # the tracer patches modules already imported
from conftest import CUBIC

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_run_reports_the_solution_table(monkeypatch, capsys):
    """The table counters read the store and the degree diagnostic of
    `SolutionBasis` by name; a rename would read as an empty table."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer().install()
    try:
        code = precint.cli.main(["global-basis", "--operator", CUBIC,
                                 "--right-bound", "Z=4", "--format", "json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    figures = tracer.take_round()
    assert figures["ore.table.extent"] > 0
    assert figures["ore.table.max_q_degree"] > 0
