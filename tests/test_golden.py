"""Byte identity of the exact CLI reports and series outputs against the stored
golden files."""

import importlib.util
import pathlib

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", pathlib.Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("argv", regen.COMMANDS, ids=regen.golden_name)
def test_golden_report(argv):
    code, text = regen.render(argv)
    assert code == 0
    assert text == (regen.GOLDEN_DIR / regen.golden_name(argv)).read_text()


@pytest.mark.parametrize("entry", regen.SERIES, ids=regen.series_name)
def test_golden_series(entry):
    assert regen.render_series(entry) == (regen.GOLDEN_DIR / regen.series_name(entry)).read_text()


@pytest.mark.parametrize("entry", regen.ROUND_TRIPS, ids=regen.round_trip_name)
def test_golden_round_trip(entry):
    text = regen.render_series(entry, back=True)
    assert text == (regen.GOLDEN_DIR / regen.round_trip_name(entry)).read_text()


def test_check_lists_the_files_that_would_change_and_writes_nothing(tmp_path, monkeypatch, capsys):
    for path in regen.GOLDEN_DIR.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    stale = tmp_path / regen.series_name(regen.SERIES[0])
    stale.write_text(stale.read_text().replace("1", "2", 1))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [f"would change {stale.name}"]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
