"""Tests for the report runner: cheap-section smoke tests and the full golden."""

import re
from pathlib import Path

import pytest

from repro.harness import report, table1_specs, fig7_allreduce


def test_run_renders_selected_sections(monkeypatch, capsys):
    monkeypatch.setattr(
        report, "SECTIONS", (("Table I", table1_specs), ("Fig. 7", fig7_allreduce))
    )
    out = report.run(verbose=True)
    assert set(out) == {"Table I", "Fig. 7"}
    printed = capsys.readouterr().out
    assert "Table I" in printed and "SW26010" in printed


def test_run_quiet(monkeypatch, capsys):
    monkeypatch.setattr(report, "SECTIONS", (("Table I", table1_specs),))
    out = report.run(verbose=False)
    assert "SW26010" in out["Table I"]
    assert capsys.readouterr().out == ""


def test_all_sections_have_render():
    for name, module in report.SECTIONS:
        assert callable(getattr(module, "render", None)), name


def test_full_report_matches_golden(capsys):
    """Every table, figure, ablation and extension number the report prints.

    Regenerate with ``python -m repro report`` and drop the
    ``  (generated in N.Ns)`` suffixes of the section headers.
    """
    report.run()
    printed = re.sub(r"  \(generated in [0-9.]+s\)", "", capsys.readouterr().out)
    golden = Path(__file__).parent / "golden" / "report.txt"
    assert printed == golden.read_text(encoding="utf-8")
