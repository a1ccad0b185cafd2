from pathlib import Path

import pytest


def test_readme_library_example_prints_what_it_says(capsys):
    # The python block under "## Library tour" in README.md must run and print
    # the values its comments name.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library tour\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    lines = capsys.readouterr().out.split()
    assert len(lines) == 5
    assert float(lines[0]) == 1.0
    assert float(lines[1]) == pytest.approx(0.9330, abs=5e-5)
    assert lines[2] == "True"
    assert float(lines[3]) == pytest.approx(0.978, abs=5e-4)
    # Helstrom for orthogonal pure states under Werner noise v: (1 + v) / 2.
    assert float(lines[4]) == pytest.approx((1.0 + 0.956) / 2.0, abs=1e-12)
