"""The package's public names: ``__all__``, star imports and the benchmark's reads.

``bench/run.py`` calls the package only through ``hashrec.<name>``, so a
name dropped from the package would otherwise show only when the
benchmark runs.
"""

import pathlib
import re

import hashrec

RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_all_is_sorted_unique_and_resolves():
    assert hashrec.__all__ == sorted(set(hashrec.__all__))
    assert [name for name in hashrec.__all__ if not hasattr(hashrec, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hashrec import *", namespace)
    assert set(hashrec.__all__) <= namespace.keys()


def test_every_name_the_benchmark_reads_resolves():
    names = set(re.findall(r"\bhashrec\.([A-Za-z_]\w*)", RUN.read_text(encoding="utf-8")))
    assert {"generate", "run_eval", "query_metrics", "recommend_bll_isc"} <= names
    assert sorted(name for name in names if not hasattr(hashrec, name)) == []
