"""scripts/field_timings.py: each field layer timed, with its peak RSS, in a fresh interpreter."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "field_timings.py"
spec = importlib.util.spec_from_file_location("field_timings", SCRIPT)
field_timings = importlib.util.module_from_spec(spec)
spec.loader.exec_module(field_timings)


def times_ms(record):
    """Every value under a key ending in _ms, at any depth."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from times_ms(value)
        elif key.endswith("_ms"):
            yield value


def test_one_small_field_and_the_search_over_every_capped_field(capsys, monkeypatch):
    monkeypatch.setattr(field_timings, "FIELDS", [(2, 3)])
    monkeypatch.setattr(field_timings, "REPEATS", 1)
    assert field_timings.main([]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out["fields"]) == ["2,3"]
    assert out["fields"]["2,3"]["modulus"] == [1, 1, 0, 1]
    assert out["search_all"]["fields"] == 242
    ms = list(times_ms(out))
    assert len(ms) == 4 and all(t > 0 for t in ms)
    rss = {key: value for key, value in out["fields"]["2,3"].items() if key.endswith("_peak_rss_mib")}
    assert set(rss) == {f"{layer}_peak_rss_mib" for layer in field_timings.LAYERS}
    assert all(mib > 0 for mib in rss.values())
