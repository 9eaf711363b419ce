"""README's Quick start block runs as written."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code():
    section = README.read_text(encoding="utf-8").split("## Quick start (Python)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_prints_a_ranking_and_mrrs(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {})
    ranking_line, mrr_line = capsys.readouterr().out.splitlines()
    ranking = ast.literal_eval(ranking_line)
    assert len(ranking) == 5
    scores = [score for _, score in ranking]
    assert scores == sorted(scores, reverse=True) and all(0.0 < score <= 1.0 for score in scores)
    mrr = ast.literal_eval(mrr_line)
    assert set(mrr) == {"bll_is", "mp_u"} and all(0.0 <= value <= 1.0 for value in mrr.values())
