import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from branchdistill import cli
from branchdistill import corpus as cp
from branchdistill import evaluation as ev

TINY = [
    "--corpus.records", "20",
    "--corpus.passage_min", "5",
    "--corpus.passage_max", "8",
    "--corpus.content_vocab", "12",
    "--model.hidden", "8",
    "--model.ffn", "12",
    "--model.max_len", "32",
    "--train.epochs", "2",
    "--train.lr", "0.002",
]


# A version-1 logit store (teacher "en", max_len 4, one record "s0") as the
# previous format wrote it: header, length-prefixed record, offset index and
# the index's position.
V1_STORE = (
    b'<\x00\x00\x00{"count":1,"format_version":1,"max_len":4,"teacher_id":"en"}'
    b"\x02\x00\x00\x00s0"
    b"\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf0\xbf"
    b"\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00\x00\x00\x00\x00"
    b"\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xd0?"
    b"\x00\x00\x00\x00\x00\x00\xe0\xbf\x00\x00\x00\x00\x00\x00\x08@"
    b'\t\x00\x00\x00{"s0":64}\x86\x00\x00\x00\x00\x00\x00\x00'
)


def run(args, *extra):
    return cli.main(list(args) + list(extra))


def tiny(cmd, out_dir, *extra, seed="3"):
    return run([cmd, "--seed", seed, "--out-dir", str(out_dir), *TINY], *extra)


class TestGenerate:
    def test_writes_corpus_and_digest(self, tmp_path):
        assert tiny("generate", tmp_path) == 0
        assert (tmp_path / "corpus.jsonl").exists()
        digest = (tmp_path / "corpus.jsonl.sha256").read_text().strip()
        assert digest == cp.sha256_file(tmp_path / "corpus.jsonl")

    def test_rerun_same_flags_identical_digest(self, tmp_path):
        tiny("generate", tmp_path / "a")
        tiny("generate", tmp_path / "b")
        assert (tmp_path / "a" / "corpus.jsonl.sha256").read_text() == (
            tmp_path / "b" / "corpus.jsonl.sha256"
        ).read_text()

    def test_zero_records_is_config_error(self, tmp_path):
        assert tiny("generate", tmp_path, "--records", "0") == 2

    def test_records_alias(self, tmp_path):
        assert tiny("generate", tmp_path, "--records", "7") == 0
        lines = (tmp_path / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 7


class TestBuild:
    def test_lbmrc_branch_sizes(self, tmp_path):
        tiny("generate", tmp_path)
        assert tiny("build", tmp_path, "--mode", "lbmrc") == 0
        # 16 train records x 3 question languages; non-source branches augmented
        branch_en = cp.read_samples(tmp_path / "datasets" / "branch_en.jsonl")
        branch_es = cp.read_samples(tmp_path / "datasets" / "branch_es.jsonl")
        assert len(branch_en) == 48
        assert len(branch_es) == 96
        union = cp.read_samples(tmp_path / "datasets" / "union.jsonl")
        assert len(union) == 144

    def test_mixmrc_size(self, tmp_path):
        tiny("generate", tmp_path)
        assert tiny("build", tmp_path, "--mode", "mixmrc") == 0
        mix = cp.read_samples(tmp_path / "datasets" / "mix.jsonl")
        assert len(mix) == 16 * 9

    def test_translate_train_pairs(self, tmp_path):
        tiny("generate", tmp_path)
        assert tiny("build", tmp_path, "--mode", "translate-train", "--language", "de") == 0
        samples = cp.read_samples(tmp_path / "datasets" / "tt_de.jsonl")
        assert len(samples) == 16
        assert all(s.passage_lang == s.question_lang == "de" for s in samples)

    def test_translate_train_requires_language(self, tmp_path):
        tiny("generate", tmp_path)
        assert tiny("build", tmp_path, "--mode", "translate-train") == 2

    def test_build_before_generate_is_missing_artifact(self, tmp_path):
        assert tiny("build", tmp_path) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        tiny("generate", tmp_path)
        tiny("build", tmp_path)
        first = {p.name: p.read_bytes() for p in (tmp_path / "datasets").iterdir()}
        tiny("build", tmp_path)
        second = {p.name: p.read_bytes() for p in (tmp_path / "datasets").iterdir()}
        assert first == second

    def test_zero_shot_eval_set_written(self, tmp_path):
        tiny("generate", tmp_path)
        tiny("build", tmp_path)
        zz = cp.read_samples(tmp_path / "datasets" / "eval_zero_shot_zz.jsonl")
        assert zz and all(s.passage_lang == "zz" for s in zz)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One tiny corpus with teachers, stores, student, and reports."""
    out = tmp_path_factory.mktemp("pipeline")
    tiny("generate", out)
    tiny("build", out)
    for lang in ("en", "es", "de"):
        assert tiny("train-teacher", out, "--branch", lang) == 0
        assert tiny("dump-logits", out, "--teacher", lang) == 0
    return out


class TestPipelineCommands:
    def test_distill_and_evaluate(self, pipeline_dir):
        assert tiny("distill", pipeline_dir, "--strategy", "impurity", "--impurity-sign", "-1",
                    "--run-name", "imp_minus") == 0
        manifest = json.loads(
            (pipeline_dir / "students" / "imp_minus" / "manifest.json").read_text()
        )
        assert manifest["train_config"]["strategy"] == "impurity"
        assert manifest["train_config"]["impurity_sign"] == -1

        report_path = pipeline_dir / "reports" / "imp_minus.json"
        assert tiny("evaluate", pipeline_dir,
                    "--model", str(pipeline_dir / "students" / "imp_minus" / "final.ckpt"),
                    "--report", str(report_path)) == 0
        assert report_path.exists()
        assert (pipeline_dir / "reports" / "imp_minus.txt").exists()

    def test_zero_shot_evaluate(self, pipeline_dir):
        assert tiny("evaluate", pipeline_dir,
                    "--model", str(pipeline_dir / "teachers" / "en" / "final.ckpt"),
                    "--zero-shot-language", "zz") == 0

    def test_missing_checkpoint_is_exit_3(self, pipeline_dir):
        assert tiny("evaluate", pipeline_dir,
                    "--model", str(pipeline_dir / "teachers" / "nope" / "final.ckpt")) == 3

    def test_distill_without_stores_is_exit_3(self, tmp_path):
        tiny("generate", tmp_path)
        tiny("build", tmp_path)
        assert tiny("distill", tmp_path) == 3

    def test_distill_on_truncated_store_is_exit_2(self, pipeline_dir, tmp_path):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        store = out / "logits" / "es.logits"
        store.write_bytes(store.read_bytes()[:-100])
        assert tiny("distill", out, "--run-name", "truncated") == 2

    def test_distill_on_version_1_store_is_exit_2(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        (out / "logits" / "es.logits").write_bytes(V1_STORE)
        assert tiny("distill", out, "--run-name", "old_store") == 2
        assert "unsupported logit store version" in capsys.readouterr().err
        assert not (out / "students" / "old_store").exists()
        assert tiny("dump-logits", out, "--teacher", "es") == 0
        assert tiny("distill", out, "--run-name", "old_store") == 0

    @pytest.mark.parametrize("name, corrupt, command", [
        ("teachers/en/manifest.json", lambda blob: blob[:100], ["train-teacher", "--branch", "en"]),
        ("vocab.json", lambda blob: blob[: len(blob) // 2], ["dump-logits", "--teacher", "en"]),
        ("vocab.json", lambda blob: b'{"oov_buckets":100}', ["dump-logits", "--teacher", "en"]),
        ("datasets/union.jsonl", lambda blob: blob[: len(blob) // 2], ["distill"]),
        ("datasets/union.jsonl", lambda blob: blob.replace(b'"gold_start":', b'"gold_start":"x",'
                                                           b'"was":', 1), ["distill"]),
        ("report.json", lambda blob: blob[: len(blob) // 2], ["compare", "--reports", "{}"]),
        ("corpus.jsonl", lambda blob: blob[: len(blob) // 2], ["build"]),
        ("config.json", lambda blob: blob[: len(blob) // 2], ["generate", "--config", "{}"]),
    ], ids=["manifest", "vocab", "vocab_without_tokens", "dataset", "dataset_field_type",
            "report", "corpus", "config"])
    def test_malformed_json_artifact_is_exit_2(self, pipeline_dir, tmp_path, name, corrupt,
                                               command, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        path = out / name
        if name == "report.json":
            ev.EvalReport().save(path)
        elif name == "config.json":
            path.write_text(json.dumps({"corpus.records": 9}))
        path.write_bytes(corrupt(path.read_bytes()))
        assert tiny(command[0], out, *[arg.format(path) for arg in command[1:]]) == 2
        assert f"{path} is malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:-100],       # last parameter block cut short
        lambda blob: blob[:10],         # header cut
        lambda blob: blob + b"\0\0",    # bytes after the last block
    ], ids=["truncated_block", "cut_header", "trailing_bytes"])
    def test_dump_logits_from_corrupt_checkpoint_is_exit_2(self, pipeline_dir, tmp_path,
                                                          corrupt, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        ckpt = out / "teachers" / "en" / "final.ckpt"
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        assert tiny("dump-logits", out, "--teacher", "en") == 2
        assert "is corrupt" in capsys.readouterr().err

    def test_non_finite_training_step_is_exit_2_under_optimized_python(self, tmp_path):
        # python -O strips asserts; the finite-value check must still stop
        # the run before a non-finite update (a peak rate of 1e200 overflows)
        tiny("generate", tmp_path)
        tiny("build", tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "branchdistill.cli", "train-teacher", "--seed", "3",
             "--out-dir", str(tmp_path), *TINY, "--branch", "en", "--train.lr", "1e200"],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 2, proc.stderr
        assert "must be finite" in proc.stderr

    def test_teacher_determinism_across_reruns(self, pipeline_dir, tmp_path):
        out = tmp_path / "again"
        tiny("generate", out)
        tiny("build", out)
        assert tiny("train-teacher", out, "--branch", "en") == 0
        a = (pipeline_dir / "teachers" / "en" / "final.ckpt").read_bytes()
        b = (out / "teachers" / "en" / "final.ckpt").read_bytes()
        assert a == b

    @pytest.mark.parametrize("flag, value", [("--train.lr", "0.009"), ("--model.ffn", "16")])
    def test_resume_with_different_config_is_config_error(self, pipeline_dir, flag, value):
        final = pipeline_dir / "teachers" / "en" / "final.ckpt"
        before = final.read_bytes()
        assert tiny("train-teacher", pipeline_dir, "--branch", "en", flag, value) == 2
        assert final.read_bytes() == before

    def test_compare_runs(self, pipeline_dir, capsys):
        report = pipeline_dir / "reports" / "teacher_en.json"
        assert tiny("evaluate", pipeline_dir,
                    "--model", str(pipeline_dir / "teachers" / "en" / "final.ckpt"),
                    "--report", str(report)) == 0
        out_path = pipeline_dir / "reports" / "cmp.json"
        assert tiny("compare", pipeline_dir, "--reports", str(report), str(report),
                    "--names", "a,b", "--out", str(out_path)) == 0
        comparison = json.loads(out_path.read_text())
        assert [row["name"] for row in comparison["rows"]] == ["a", "b"]
        text = capsys.readouterr().out
        assert "overall" in text


class TestAblate:
    def test_matrix_rows_and_baseline(self, tmp_path, capsys):
        tiny("generate", tmp_path)
        assert tiny("ablate", tmp_path) == 0
        comparison = json.loads((tmp_path / "reports" / "ablation.json").read_text())
        names = [row["name"] for row in comparison["rows"]]
        assert names == [
            "teacher_en", "teacher_es", "teacher_de",
            "ours_hyper", "ours_imp", "wo_es", "wo_de", "w_en_only", "w_mix",
        ]
        assert comparison["baseline"] == "ours_imp"
        text = capsys.readouterr().out
        assert "ours_imp" in text and "teacher_en" in text

    def test_ablate_without_corpus_is_exit_3(self, tmp_path):
        assert tiny("ablate", tmp_path / "empty") == 3


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path):
        config = {"corpus.records": 9, "corpus.passage_min": 5, "corpus.passage_max": 7}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run(["generate", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        assert len((tmp_path / "corpus.jsonl").read_text().splitlines()) == 9
        # flag wins over the file
        assert run(["generate", "--config", str(path), "--out-dir", str(tmp_path),
                    "--corpus.records", "4"]) == 0
        assert len((tmp_path / "corpus.jsonl").read_text().splitlines()) == 4

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"nonsense.key": 1}))
        assert run(["generate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("via_file", [False, True], ids=["flag", "config_file"])
    def test_non_numeric_value_is_config_error(self, tmp_path, via_file, capsys):
        args = ["--corpus.records", "many"]
        if via_file:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"corpus.records": "many"}))
            args = ["--config", str(path)]
        assert run(["generate", "--out-dir", str(tmp_path), *args]) == 2
        assert "corpus.records" in capsys.readouterr().err

    def test_unknown_mode_is_usage_error(self, tmp_path):
        assert run(["build", "--mode", "bogus", "--out-dir", str(tmp_path)]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", [
        "generate", "build", "train-teacher", "dump-logits",
        "distill", "evaluate", "ablate", "compare",
    ])
    def test_help_documents_output_affecting_flags(self, command, capsys):
        assert run([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--seed" in text
        assert "--out-dir" in text
        assert "--config" in text
        if command in ("generate", "build", "train-teacher", "distill"):
            assert "--train.epochs" in text and "--corpus.records" in text

    def test_help_with_percent_in_text(self, monkeypatch, capsys):
        parser, default, _ = cli.SCHEMA["train.lr"]
        monkeypatch.setitem(cli.SCHEMA, "train.lr", (parser, default, "peak rate, 10% warmup"))
        assert run(["generate", "--help"]) == 0
        assert "10% warmup" in capsys.readouterr().out
