"""Command line interface: subcommands, exit codes, file outputs."""

import json

import pytest

from hashrec.cli import main
from hashrec.corpus import parse_follows, parse_tweets
from hashrec.synth import GenConfig, generate

CONFIG = dict(
    n_users=25,
    n_tweets=1500,
    follow_prob=0.08,
    p_individual=0.4,
    p_social=0.2,
    alpha=1.0,
    zipf_s=0.6,
    vocab_size=500,
    seed=11,
)


@pytest.fixture()
def corpus_dir(tmp_path):
    result = generate(GenConfig(**CONFIG))
    tweets = tmp_path / "tweets.jsonl"
    follows = tmp_path / "follows.tsv"
    tweets.write_text(result.tweets_jsonl, encoding="utf-8")
    follows.write_text(result.follows_tsv, encoding="utf-8")
    return tmp_path


def run(*argv):
    return main(["--quiet", *argv])


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert run("evaluate", "--out", str(tmp_path)) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_subcommand_help_lists_defaults(self, capsys):
        assert main(["evaluate", "--help"]) == 0
        text = capsys.readouterr().out
        for needle in ("0.5", "10", "--holdout", "--k-max", "--beta", "--lambda"):
            assert needle in text

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = run("analyze", "--tweets", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path))
        assert code == 2

    def test_malformed_line_reported_with_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        good = '{"tweet_id":"t%d","user_id":"u1","timestamp":%d,"hashtags":["x"]}'
        lines = [good % (i, i) for i in range(6)] + ["{broken"]
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("analyze", "--tweets", str(bad), "--out", str(tmp_path)) == 2
        assert "line 7" in capsys.readouterr().err


class TestGenerate:
    def test_writes_parseable_corpus(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
        out = tmp_path / "corpus"
        assert run("generate", "--config", str(config_path), "--out", str(out)) == 0
        tweets = parse_tweets((out / "tweets.jsonl").read_text(encoding="utf-8").splitlines())
        assert len(tweets) == CONFIG["n_tweets"]
        parse_follows((out / "follows.tsv").read_text(encoding="utf-8").splitlines())
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert stats["n_tweets"] == CONFIG["n_tweets"]

    def test_repeat_runs_byte_identical(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--config", str(config_path), "--out", str(out_a)) == 0
        assert run("generate", "--config", str(config_path), "--out", str(out_b)) == 0
        for name in ("tweets.jsonl", "follows.tsv", "stats.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_invalid_config_is_data_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**CONFIG, "alpha": -1}), encoding="utf-8")
        assert run("generate", "--config", str(config_path), "--out", str(tmp_path)) == 2
        assert "alpha" in capsys.readouterr().err

    def test_non_finite_config_is_data_error(self, tmp_path, capsys):
        # json accepts the NaN literal, so it must be caught by the config.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**CONFIG, "alpha": float("nan")}), encoding="utf-8")
        assert "NaN" in config_path.read_text(encoding="utf-8")
        assert run("generate", "--config", str(config_path), "--out", str(tmp_path)) == 2
        assert "alpha must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("n_users", float("nan")), ("seed", 1.5), ("n_tweets", True)])
    def test_non_integer_config_is_data_error(self, tmp_path, capsys, field, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**CONFIG, field: value}), encoding="utf-8")
        assert run("generate", "--config", str(config_path), "--out", str(tmp_path)) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "tweets.jsonl").exists()

    @pytest.mark.parametrize(
        "field,value", [("follow_prob", "0.1"), ("p_individual", "0.4"), ("alpha", None), ("follow_prob", [0.1]), ("follow_prob", True)]
    )
    def test_non_numeric_real_config_is_data_error(self, tmp_path, capsys, field, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**CONFIG, field: value}), encoding="utf-8")
        assert run("generate", "--config", str(config_path), "--out", str(tmp_path)) == 2
        assert f"{field} must be a real number" in capsys.readouterr().err
        assert not (tmp_path / "tweets.jsonl").exists()

    def test_unknown_config_key_is_data_error(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**CONFIG, "bogus": 3}), encoding="utf-8")
        assert run("generate", "--config", str(config_path), "--out", str(tmp_path)) == 2

    def test_config_not_json_is_data_error(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text("not json", encoding="utf-8")
        assert run("generate", "--config", str(config_path), "--out", str(tmp_path)) == 2


class TestAnalyze:
    def test_writes_categories_and_decay_files(self, corpus_dir, tmp_path):
        out = tmp_path / "analysis"
        code = run(
            "analyze",
            "--tweets", str(corpus_dir / "tweets.jsonl"),
            "--follows", str(corpus_dir / "follows.tsv"),
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "categories.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category,count,share"
        rows = [line.split(",") for line in lines[1:]]
        assert {r[0] for r in rows} == {
            "individual", "social", "individual_social", "network", "external",
        }
        assert abs(sum(float(r[2]) for r in rows) - 1.0) < 1e-9
        decay = (out / "decay_individual.csv").read_text(encoding="utf-8").splitlines()
        assert decay[0].startswith("# fit_slope=")
        assert decay[1] == "age_midpoint,count"
        assert (out / "decay_social.csv").exists()

    @pytest.mark.parametrize("unit", ["seconds", "hours"])
    def test_decay_rows_are_plain_numbers(self, corpus_dir, tmp_path, unit):
        out = tmp_path / "analysis"
        corpus = ("--tweets", str(corpus_dir / "tweets.jsonl"), "--follows", str(corpus_dir / "follows.tsv"))
        assert run("analyze", *corpus, "--time-unit", unit, "--out", str(out)) == 0
        for kind in ("individual", "social"):
            rows = (out / f"decay_{kind}.csv").read_text(encoding="utf-8").splitlines()[2:]
            assert rows
            for row in rows:
                mid, count = row.split(",")
                assert float(mid) > 0 and int(count) >= 0

    def test_works_without_follow_graph(self, corpus_dir, tmp_path):
        out = tmp_path / "analysis"
        code = run("analyze", "--tweets", str(corpus_dir / "tweets.jsonl"), "--out", str(out))
        assert code == 0
        rows = (out / "categories.csv").read_text(encoding="utf-8").splitlines()[1:]
        social = dict((r.split(",")[0], int(r.split(",")[1])) for r in rows)
        assert social["social"] == 0 and social["individual_social"] == 0

    def test_unit_coarser_than_span_is_data_error(self, tmp_path):
        lines = [
            '{"tweet_id":"t1","user_id":"u1","timestamp":0,"hashtags":["x"]}',
            '{"tweet_id":"t2","user_id":"u1","timestamp":500,"hashtags":["x"]}',
        ]
        tweets = tmp_path / "narrow.jsonl"
        tweets.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(
            "analyze",
            "--tweets", str(tweets),
            "--out", str(tmp_path / "x"),
            "--time-unit", "hours",
        )
        assert code == 2

    def test_same_second_corpus_writes_nan_fits(self, tmp_path):
        lines = [
            '{"tweet_id":"t1","user_id":"u1","timestamp":7,"hashtags":["x"]}',
            '{"tweet_id":"t2","user_id":"u1","timestamp":7,"hashtags":["x"]}',
        ]
        tweets = tmp_path / "instant.jsonl"
        tweets.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "x"
        assert run("analyze", "--tweets", str(tweets), "--out", str(out)) == 0
        for kind in ("individual", "social"):
            decay = (out / f"decay_{kind}.csv").read_text(encoding="utf-8").splitlines()
            assert decay[0] == "# fit_slope=nan fit_intercept=nan r_squared=nan"

    def test_bad_time_unit_is_usage_error(self, corpus_dir, tmp_path):
        code = run(
            "analyze",
            "--tweets", str(corpus_dir / "tweets.jsonl"),
            "--out", str(tmp_path / "x"),
            "--time-unit", "fortnights",
        )
        assert code == 1


class TestRecommend:
    def fixture_files(self, tmp_path):
        lines = [
            '{"tweet_id":"t1","user_id":"u1","timestamp":100,"hashtags":["ml"]}',
            '{"tweet_id":"t2","user_id":"u1","timestamp":900,"hashtags":["ai"]}',
        ]
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return tweets

    def test_json_output_descending(self, tmp_path, capsys):
        tweets = self.fixture_files(tmp_path)
        code = run("recommend", "--tweets", str(tweets), "--user", "u1", "--now", "1000", "--k", "2")
        assert code == 0
        ranked = json.loads(capsys.readouterr().out)
        assert [r["hashtag"] for r in ranked] == ["ai", "ml"]
        assert ranked[0]["score"] >= ranked[1]["score"]

    def test_text_flag_blends_content(self, tmp_path, capsys):
        lines = [
            '{"tweet_id":"t1","user_id":"u1","timestamp":100,"hashtags":["ml"],"text":"deep nets"}',
            '{"tweet_id":"t2","user_id":"u2","timestamp":200,"hashtags":["py"],"text":"pip tooling"}',
        ]
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(
            "recommend", "--tweets", str(tweets), "--user", "u1", "--now", "1000",
            "--text", "pip tooling tricks", "--lambda", "0.4",
        )
        assert code == 0
        ranked = json.loads(capsys.readouterr().out)
        assert [r["hashtag"] for r in ranked] == ["py", "ml"]

    @pytest.mark.parametrize("offset", [0, 1])
    def test_text_at_or_after_now_is_not_read(self, tmp_path, capsys, offset):
        lines = [
            '{"tweet_id":"t1","user_id":"u1","timestamp":100,"hashtags":["ml"],"text":"deep nets"}',
            '{"tweet_id":"t2","user_id":"u2","timestamp":200,"hashtags":["py"],"text":"pip tooling"}',
        ]
        late = f'{{"tweet_id":"t3","user_id":"u3","timestamp":{1000 + offset},"hashtags":["late"],"text":"pip"}}'
        outputs = []
        for rows in (lines, lines + [late]):
            tweets = tmp_path / "tweets.jsonl"
            tweets.write_text("\n".join(rows) + "\n", encoding="utf-8")
            code = run(
                "recommend", "--tweets", str(tweets), "--user", "u1", "--now", "1000",
                "--text", "pip tooling tricks", "--lambda", "0.4",
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_unknown_user_empty_list(self, tmp_path, capsys):
        tweets = self.fixture_files(tmp_path)
        code = run("recommend", "--tweets", str(tweets), "--user", "zz", "--now", "1000")
        assert code == 0
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize(
        "extra",
        [
            ("--k", "0"),
            ("--beta", "1.5"),
            ("--lambda", "-0.2"),
            ("--d-ind", "0"),
            ("--d-ind", "nan"),
            ("--d-soc", "inf"),
            ("--beta", "nan"),
            ("--now", "-1"),
            ("--now", str(2**63)),
            ("--now", str(10**400)),
        ],
    )
    def test_bad_values_are_usage_errors(self, tmp_path, extra):
        tweets = self.fixture_files(tmp_path)
        code = run("recommend", "--tweets", str(tweets), "--user", "u1", "--now", "1000", *extra)
        assert code == 1


class TestEvaluate:
    def test_writes_metrics_and_curve(self, corpus_dir, tmp_path):
        out = tmp_path / "eval"
        code = run(
            "evaluate",
            "--tweets", str(corpus_dir / "tweets.jsonl"),
            "--follows", str(corpus_dir / "follows.tsv"),
            "--out", str(out),
            "--algorithms", "bll_is,mp_u,mr",
            "--k-max", "5",
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert set(metrics["algorithms"]) == {"bll_is", "mp_u", "mr"}
        assert metrics["k_max"] == 5 and metrics["scenario"] == 1
        report = metrics["algorithms"]["bll_is"]
        assert len(report["precision"]) == 5
        curve = (out / "pr_curve.csv").read_text(encoding="utf-8").splitlines()
        assert curve[0] == "algorithm,k,precision,recall"
        assert len(curve) == 1 + 3 * 5

    def test_unknown_algorithm_is_usage_error(self, corpus_dir, tmp_path, capsys):
        code = run(
            "evaluate",
            "--tweets", str(corpus_dir / "tweets.jsonl"),
            "--out", str(tmp_path / "x"),
            "--algorithms", "bll_is,nope",
        )
        assert code == 1
        assert "nope" in capsys.readouterr().err

    def test_invalid_scenario_is_usage_error(self, corpus_dir, tmp_path):
        code = run(
            "evaluate",
            "--tweets", str(corpus_dir / "tweets.jsonl"),
            "--out", str(tmp_path / "x"),
            "--scenario", "3",
        )
        assert code == 1

    def test_oversized_holdout_is_data_error(self, corpus_dir, tmp_path):
        code = run(
            "evaluate",
            "--tweets", str(corpus_dir / "tweets.jsonl"),
            "--out", str(tmp_path / "x"),
            "--holdout", "10000",
        )
        assert code == 2

    def test_thread_count_does_not_change_bytes(self, corpus_dir, tmp_path):
        outs = []
        for threads, name in ((1, "t1"), (8, "t8")):
            out = tmp_path / name
            code = main([
                "--quiet", "--threads", str(threads),
                "evaluate",
                "--tweets", str(corpus_dir / "tweets.jsonl"),
                "--follows", str(corpus_dir / "follows.tsv"),
                "--out", str(out),
                "--algorithms", "bll_is,mp,mp_u",
                "--k-max", "5",
            ])
            assert code == 0
            outs.append(out)
        for name in ("metrics.json", "pr_curve.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
