"""The README's library example runs against the package as it stands."""
import re
from pathlib import Path

from qtrust import simulator

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    calls = [0]
    original = simulator._evolve

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(simulator, "_evolve", counting)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out
    assert calls == [1]  # the example prepares its circuit once
