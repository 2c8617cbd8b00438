"""README's examples run as written: the library tour prints what its
comments say, and every CLI line exits 0 and prints what its `# prints`
comment says."""

import re
import shlex
from pathlib import Path

from charclass.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the `## heading` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_tour(capsys):
    exec(block("Library tour", "python"), {})
    assert capsys.readouterr().out.splitlines() == ["-c2", "v3*w3"]


def test_cli_examples(capsys, tmp_path):
    lines = block("CLI", "sh").splitlines()
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "charclass", line
        argv = [str(tmp_path / a) if a == "report.json" else a for a in argv[1:]]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        expected = re.search(r"# prints (.*)$", line)
        if expected:
            assert out == expected.group(1) + "\n", line
    assert (tmp_path / "report.json").exists()
