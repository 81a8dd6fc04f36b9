"""Every `$ graphlift ...  # exit N` line in the README runs as written."""

import re
import shlex
from pathlib import Path

from graphlift import cli

README = Path(__file__).resolve().parent.parent / "README.md"
LINE = re.compile(r"^\$ graphlift (?P<argv>.+?)\s+# exit (?P<code>\d+)$")


def readme_commands():
    out = []
    for line in README.read_text().splitlines():
        hit = LINE.match(line.strip())
        if hit:
            out.append((hit.group("argv"), int(hit.group("code"))))
    return out


def test_readme_has_a_worked_example():
    assert len(readme_commands()) >= 10


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, want in readme_commands():
        code = cli.run(shlex.split(argv))
        capsys.readouterr()  # keep per-command output out of the report
        assert code == want, f"graphlift {argv}: exit {code}, documented {want}"


def test_readme_tour_repeats_identically(tmp_path, monkeypatch, capsys):
    """The CLI parser is shared across calls, so a second pass of the tour
    in the same process prints exactly what the first one did."""
    outputs = []
    for rep in ("first", "second"):
        work = tmp_path / rep
        work.mkdir()
        monkeypatch.chdir(work)
        for argv, _ in readme_commands():
            cli.run(shlex.split(argv))
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out


def test_readme_quoted_outputs_match(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cli.run(shlex.split("graph make sphere-odd --n 3 --out sphere.json"))
    cli.run(shlex.split(
        "module make --graph sphere.json --vertex 1 --z exp(1/8) --out mod.json"
    ))
    capsys.readouterr()
    code = cli.run(shlex.split(
        "lift eigen --module mod.json --vertex 1 --level 2"
    ))
    out = capsys.readouterr().out
    assert code == 0
    assert "eigenvalue: 0.707107-0.707107i" in out
    cli.run(shlex.split("graph make lens --n 2 --p 4 --weights 2,1"))
    err = capsys.readouterr().err
    assert "error: weights must be coprime to p: gcd(m_1=2, p=4) != 1" in err


def test_readme_classify_shape(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cli.run(shlex.split("graph make sphere-odd --n 3 --out sphere.json"))
    capsys.readouterr()
    cli.run(["classify", "sphere.json"])
    assert '"class": "loop-graph"' in capsys.readouterr().out


def test_readme_library_block_prints_its_comments(capsys):
    """The "Library use" block runs as written, and each line it prints is
    the trailing `# ...` comment of its `print` call."""
    section = README.read_text().split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert len(expected) == 3
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
