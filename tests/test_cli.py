import argparse
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import branchdistill
from branchdistill import cli
from branchdistill import corpus as cp
from branchdistill import errors
from branchdistill import evaluation as ev
from branchdistill import model as md
from branchdistill import train as tr
from branchdistill.errors import InvalidConfig, MissingArtifact

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


def rewrite_header(edit):
    """A corruption of a checkpoint that applies ``edit`` to its JSON header
    and keeps its parameter block."""
    def corrupt(blob):
        start = 4 + int.from_bytes(blob[:4], "little")
        header = json.loads(blob[4:start])
        edit(header)
        return md.pack_artifact(header, np.frombuffer(blob, "<f8", offset=start))
    return corrupt


def rewrite_first_record(edit):
    """A corruption of a JSONL artifact that applies ``edit`` to its first
    record and keeps the other lines."""
    def corrupt(blob):
        first, rest = blob.split(b"\n", 1)
        record = json.loads(first)
        edit(record)
        return json.dumps(record).encode() + b"\n" + rest
    return corrupt


def _shift_answer(record, key):
    record["renderings"]["en"][key] += 0.5


def forbid_training(monkeypatch):
    """Make the CLI's next training run fail. A run trained again writes the
    same bytes, which ``write_file`` leaves alone, mtime included, so only
    this tells a kept run from a retrained one."""
    def train(*args, **kwargs):
        raise AssertionError("a finished run was trained again")
    monkeypatch.setattr(cli, "train", train)


def _as_version_3(manifest):
    """Rewrite a run manifest as version 3 wrote it: the distillation
    settings (a teacher's with hard-label weights) and the optimizer's
    constants in ``train_config``, and no ``distill_config``."""
    distill = manifest.pop("distill_config") or dataclasses.asdict(
        tr.DistillConfig(lambda1=1.0, lambda2=0.0))
    manifest["train_config"].update(distill, teacher_ids=sorted(manifest["teacher_store_digests"]),
                                    betas=[0.9, 0.999], eps=1e-8)
    manifest["format_version"] = 3


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
        assert tiny("generate", tmp_path, "--corpus.records", "0") == 2

    def test_records_flag(self, tmp_path):
        assert tiny("generate", tmp_path, "--corpus.records", "7") == 0
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

    @pytest.mark.parametrize("builds, metas", [
        ([["--mode", "lbmrc"]], ["lbmrc"]),
        ([["--mode", "mixmrc"]], ["mixmrc"]),
        # the baseline builds every language in turn into one datasets directory
        ([["--mode", "translate-train", "--language", lang] for lang in ("en", "de")],
         ["tt_en", "tt_de"]),
    ], ids=["lbmrc", "mixmrc", "translate-train"])
    def test_builds_keep_one_meta_each(self, tmp_path, builds, metas):
        # every dataset a meta sizes, and each evaluation set, is the file
        # datasets/<name>.jsonl with that many samples, and no other is written
        tiny("generate", tmp_path)
        for args in builds:
            assert tiny("build", tmp_path, *args) == 0
        datasets = tmp_path / "datasets"
        sizes = {}
        for name in metas:
            meta = json.loads((datasets / f"build_meta_{name}.json").read_text())
            assert set(meta["sizes"]) == {"lbmrc": {"branch_en", "branch_es", "branch_de", "union"},
                                          "mixmrc": {"mix"}}.get(name, {name})
            sizes.update(meta["sizes"], eval_grid=meta["eval_grid"],
                         eval_zero_shot_zz=meta["eval_zero_shot_zz"])
        assert {p.stem for p in datasets.glob("*.jsonl")} == set(sizes)
        for name, size in sizes.items():
            assert len(cp.read_samples(datasets / f"{name}.jsonl")) == size

    @pytest.mark.parametrize("language", [[], ["--language", "fr"]], ids=["none", "untrained"])
    def test_translate_train_needs_a_training_language(self, tmp_path, language, capsys):
        tiny("generate", tmp_path)
        capsys.readouterr()
        assert tiny("build", tmp_path, "--mode", "translate-train", *language) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: build --mode translate-train needs --language")
        assert err.count("\n") == 1
        # refused before anything is written
        assert not (tmp_path / "vocab.json").exists()
        assert not (tmp_path / "datasets").exists()

    @pytest.mark.parametrize("mode", ["lbmrc", "mixmrc"])
    def test_language_without_translate_train_is_config_error(self, tmp_path, mode,
                                                              monkeypatch, capsys):
        # only translate-train reads --language; any other mode refuses it
        # before the corpus is read or anything is written
        tiny("generate", tmp_path)
        capsys.readouterr()

        def read_corpus(path):
            raise AssertionError(f"{path} was read")
        monkeypatch.setattr(cp, "read_corpus", read_corpus)
        assert tiny("build", tmp_path, "--mode", mode, "--language", "de") == 2
        assert capsys.readouterr().err == (f"error: build --language applies only to "
                                           f"--mode translate-train, not {mode}\n")
        assert not (tmp_path / "vocab.json").exists()
        assert not (tmp_path / "datasets").exists()

    def test_build_before_generate_is_missing_artifact(self, tmp_path):
        assert tiny("build", tmp_path) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        tiny("generate", tmp_path)
        tiny("build", tmp_path)
        first = {p.name: p.read_bytes() for p in (tmp_path / "datasets").iterdir()}
        tiny("build", tmp_path)
        second = {p.name: p.read_bytes() for p in (tmp_path / "datasets").iterdir()}
        assert first == second

    def test_rebuild_leaves_unchanged_shared_files_alone(self, tmp_path):
        tiny("generate", tmp_path)
        build = ["--mode", "translate-train", "--language", "de"]
        assert tiny("build", tmp_path, *build) == 0
        shared = [tmp_path / "vocab.json", tmp_path / "datasets" / "eval_grid.jsonl",
                  tmp_path / "datasets" / "eval_zero_shot_zz.jsonl"]
        for path in shared:
            os.utime(path, ns=(0, 0))
        assert tiny("build", tmp_path, *build) == 0
        assert [path.stat().st_mtime_ns for path in shared] == [0, 0, 0]

    def test_vocabulary_holds_the_tokens_of_two_training_records(self, tmp_path):
        # five records, en and es trained and zz held out: records 0-3 train
        # and record 4 is the evaluation split
        extra = {
            0: {"en": ["once", "twice"], "zz": ["held"]},
            1: {"es": ["twice"], "zz": ["held"]},
            # repeated within a passage and across renderings: one record
            2: {"en": ["rep", "rep"], "es": ["rep"]},
            3: {"en": ["late"]},
            4: {"en": ["late", "evalonly"], "es": ["evalonly"]},
        }
        records = []
        for i, tokens in extra.items():
            renderings = {lang: cp.Rendering(("ans", *tokens.get(lang, ())), ("q",), (0, 0))
                          for lang in ("en", "es", "zz")}
            records.append(cp.AlignedRecord(f"r{i}", "en", renderings))
        cp.write_corpus(records, tmp_path / "corpus.jsonl")
        assert run(["build", "--out-dir", str(tmp_path), "--languages", "en,es"]) == 0
        vocab = cp.read_json(tmp_path / "vocab.json", "vocabulary", md.Vocabulary.from_dict)
        assert cli.MIN_TOKEN_RECORDS == 2
        assert vocab.tokens == ["ans", "q", "twice"]
        for token in ("once", "rep", "late", "evalonly", "held"):
            assert vocab.token_id(token) < md.FIRST_TOKEN_ID

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
        assert tiny("distill", pipeline_dir, "--train.strategy", "impurity",
                    "--train.impurity_sign", "-1", "--run-name", "imp_minus") == 0
        manifest = json.loads(
            (pipeline_dir / "students" / "imp_minus" / "manifest.json").read_text()
        )
        assert manifest["distill_config"]["strategy"] == "impurity"
        assert manifest["distill_config"]["impurity_sign"] == -1

        report_path = pipeline_dir / "reports" / "imp_minus.json"
        assert tiny("evaluate", pipeline_dir,
                    "--model", str(pipeline_dir / "students" / "imp_minus" / "final.ckpt"),
                    "--report", str(report_path)) == 0
        assert report_path.exists()
        assert (pipeline_dir / "reports" / "imp_minus.txt").exists()

    def test_zero_shot_evaluate(self, pipeline_dir):
        assert tiny("evaluate", pipeline_dir,
                    "--model", str(pipeline_dir / "teachers" / "en" / "final.ckpt"),
                    "--dataset", str(pipeline_dir / "datasets" / "eval_zero_shot_zz.jsonl")) == 0

    @pytest.mark.parametrize("command, taken", [
        (["dump-logits", "--teacher", "en", "--store", "{taken}"], "taken"),
        (["evaluate", "--model", "{out}/teachers/en/final.ckpt", "--report", "{taken}"],
         "taken"),
        (["compare", "--reports", "{out}/reports/none.json", "--out", "{taken}"], "taken"),
        (["dump-logits", "--teacher", "en"], "logits/en.logits"),
        (["compare", "--reports", "{out}/reports/none.json"], "reports/comparison.json"),
        (["evaluate", "--model", "{out}/teachers/en/final.ckpt", "--report",
          "{out}/reports/en.json"], "reports/en.txt"),
        (["compare", "--reports", "{out}/reports/none.json", "--out", "{out}/table.json"],
         "table.txt"),
    ], ids=["dump_logits_store", "evaluate_report", "compare_out", "dump_logits_default",
            "compare_default", "evaluate_report_text", "compare_out_text"])
    def test_output_path_naming_a_directory_is_exit_2(self, pipeline_dir, tmp_path, command,
                                                      taken, monkeypatch, capsys):
        # a flag's path, a default one or the .txt rendering's path beside a
        # report's, refused before a model is loaded, a report read or
        # anything written
        def load_model(path):
            raise AssertionError(f"{path} was loaded")
        monkeypatch.setattr(cli, "load_model", load_model)
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        taken = out / taken
        if taken.is_file():
            taken.unlink()
        taken.mkdir(parents=True, exist_ok=True)

        def snapshot():
            return {path: path.is_file() and path.read_bytes() for path in out.rglob("*")}

        before = snapshot()
        command = [arg.format(out=out, taken=taken) for arg in command]
        assert tiny(command[0], out, *command[1:]) == 2
        assert capsys.readouterr().err == f"error: output path {taken} names a directory\n"
        assert snapshot() == before

    def test_missing_checkpoint_is_exit_3(self, pipeline_dir):
        assert tiny("evaluate", pipeline_dir,
                    "--model", str(pipeline_dir / "teachers" / "nope" / "final.ckpt")) == 3

    @pytest.mark.parametrize("command", [
        ["evaluate", "--model", "{}/teachers/en"],
        ["dump-logits", "--teacher", "en", "--model", "{}/teachers/en"],
        ["evaluate", "--model", "{}/teachers/en/final.ckpt", "--dataset", "{}/datasets"],
        ["compare", "--reports", "{}/datasets"],
        ["generate", "--config", "{}/teachers"],
    ], ids=["evaluate_model", "dump_logits_model", "evaluate_dataset", "compare_reports",
            "generate_config"])
    def test_input_path_naming_a_directory_is_exit_3(self, pipeline_dir, command, capsys):
        # each command fails before it writes anything
        command = [arg.format(pipeline_dir) for arg in command]
        assert tiny(command[0], pipeline_dir, *command[1:]) == 3
        err = capsys.readouterr().err
        assert err.startswith("missing artifact: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, what", [
        (["evaluate", "--model", "{run}/teachers/en/final.ckpt", "--report", "{tmp}/empty.json"],
         "evaluation dataset"),
        (["dump-logits", "--teacher", "en", "--store", "{tmp}/empty.logits"],
         "distillation dataset"),
    ], ids=["evaluate", "dump_logits"])
    def test_dataset_with_no_sample_is_exit_2(self, pipeline_dir, tmp_path, command, what,
                                              capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        command = [arg.format(run=pipeline_dir, tmp=tmp_path) for arg in command]
        assert tiny(command[0], pipeline_dir, *command[1:], "--dataset", str(empty)) == 2
        assert capsys.readouterr().err == f"error: {what} {empty} holds no sample\n"
        assert sorted(tmp_path.iterdir()) == [empty]

    def test_rebuild_with_other_languages_leaves_dumped_logits_unchanged(self, tmp_path):
        # the en,de rebuild writes a vocabulary of the same size that moves
        # ids, so only the vocabulary in the checkpoint selects the rows the
        # teacher was trained with
        first, second = ("--languages", "en,es"), ("--languages", "en,de")
        tiny("generate", tmp_path)
        assert tiny("build", tmp_path, *first) == 0
        assert tiny("train-teacher", tmp_path, *first, "--branch", "en") == 0
        branch = tmp_path / "branch_en.jsonl"
        shutil.copy(tmp_path / "datasets" / "branch_en.jsonl", branch)
        vocabularies, stores = [], []
        for languages in (first, second):
            assert tiny("build", tmp_path, *languages) == 0
            vocabularies.append(json.loads((tmp_path / "vocab.json").read_text())["tokens"])
            store = tmp_path / f"en_{len(stores)}.logits"
            assert tiny("dump-logits", tmp_path, *languages, "--teacher", "en",
                        "--dataset", str(branch), "--store", str(store)) == 0
            stores.append(store.read_bytes())
        assert len(vocabularies[0]) == len(vocabularies[1]) and vocabularies[0] != vocabularies[1]
        assert stores[0] == stores[1]

    def test_evaluate_and_dump_logits_need_no_vocabulary_file(self, pipeline_dir, tmp_path,
                                                              capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        report, store = out / "reports" / "en.json", out / "en_again.logits"

        def outputs():
            assert tiny("evaluate", out, "--model", str(out / "teachers" / "en" / "final.ckpt"),
                        "--report", str(report)) == 0
            assert tiny("dump-logits", out, "--teacher", "en", "--store", str(store)) == 0
            return [path.read_bytes() for path in (report, report.with_suffix(".txt"), store)]

        before = outputs()
        (out / "vocab.json").unlink()
        assert outputs() == before
        capsys.readouterr()
        for command in (["train-teacher", "--branch", "en"], ["distill"]):
            assert tiny(command[0], out, *command[1:]) == 3
            assert "vocabulary" in capsys.readouterr().err

    # version 1 held no vocabulary, version 2 held the embedding height in
    # its config as ``vocab_size``, and version 3 held a seed, a layer count
    # and per-layer parameter names
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_checkpoint_version_is_exit_2(self, pipeline_dir, tmp_path, version, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        ckpt = out / "teachers" / "en" / "final.ckpt"
        ckpt.write_bytes(rewrite_header(lambda header: header.update(format_version=version))(
            ckpt.read_bytes()))
        for command in (["evaluate", "--model", str(ckpt)], ["dump-logits", "--teacher", "en"]):
            assert tiny(command[0], out, *command[1:]) == 2
            assert f"unsupported checkpoint version in {ckpt}" in capsys.readouterr().err

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
        ("vocab.json", lambda blob: blob[: len(blob) // 2], ["train-teacher", "--branch", "en"]),
        ("vocab.json", lambda blob: b'{"oov_buckets":100}', ["train-teacher", "--branch", "en"]),
        ("vocab.json", lambda blob: b'{"oov_buckets":100,"tokens":[1,"a"]}',
         ["train-teacher", "--branch", "en"]),
        ("vocab.json", lambda blob: b'{"oov_buckets":100,"tokens":"abc"}',
         ["train-teacher", "--branch", "en"]),
        ("datasets/union.jsonl", lambda blob: blob[: len(blob) // 2], ["distill"]),
        ("datasets/union.jsonl", lambda blob: blob.replace(b'"gold_start":', b'"gold_start":"x",'
                                                           b'"was":', 1), ["distill"]),
        ("report.json", lambda blob: blob[: len(blob) // 2], ["compare", "--reports", "{}"]),
        ("report.json", lambda blob: blob.replace(b'"em":0.0', b'"em":"1.0"'),
         ["compare", "--reports", "{}"]),
        ("report.json", lambda blob: blob.replace(b'"em":0.0', b'"em":null'),
         ["compare", "--reports", "{}"]),
        ("report.json", lambda blob: blob.replace(b'"em":0.0', b'"em":NaN'),
         ["compare", "--reports", "{}"]),
        ("corpus.jsonl", lambda blob: blob[: len(blob) // 2], ["build"]),
        ("config.json", lambda blob: blob[: len(blob) // 2], ["generate", "--config", "{}"]),
    ], ids=["manifest", "vocab", "vocab_without_tokens", "vocab_non_string_token",
            "vocab_tokens_not_a_list", "dataset", "dataset_field_type", "report",
            "report_em_string", "report_em_null", "report_em_nan", "corpus", "config"])
    def test_malformed_json_artifact_is_exit_2(self, pipeline_dir, tmp_path, name, corrupt,
                                               command, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        path = out / name
        if name == "report.json":
            cp.write_json(path, ev.EvalReport().to_dict())
        elif name == "config.json":
            path.write_text(json.dumps({"corpus.records": 9}))
        path.write_bytes(corrupt(path.read_bytes()))
        assert tiny(command[0], out, *[arg.format(path) for arg in command[1:]]) == 2
        assert f"{path} is malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("name, field, corrupt, command", [
        ("logits/en.logits", "max_len",
         rewrite_header(lambda header: header.update(max_len="32")),
         ["distill", "--run-name", "typed"]),
        ("logits/en.logits", "teacher_id",
         rewrite_header(lambda header: header.update(teacher_id=["x"])),
         ["distill", "--run-name", "typed"]),
        ("datasets/union.jsonl", "gold_start",
         rewrite_first_record(lambda record: record.update(gold_start=2.5)),
         ["distill", "--run-name", "typed"]),
        ("datasets/union.jsonl", "gold_end",
         rewrite_first_record(lambda record: record.update(gold_end=record["gold_end"] + 0.5)),
         ["distill", "--run-name", "typed"]),
        ("corpus.jsonl", "answer_start",
         rewrite_first_record(lambda record: _shift_answer(record, "answer_start")), ["build"]),
        ("corpus.jsonl", "answer_end",
         rewrite_first_record(lambda record: _shift_answer(record, "answer_end")), ["build"]),
    ], ids=["max_len", "teacher_id", "gold_start", "gold_end", "answer_start",
            "answer_end"])
    def test_field_of_the_wrong_type_is_exit_2(self, pipeline_dir, tmp_path, name, field,
                                               corrupt, command, capsys):
        # each value converts to one of the right type, so only a type check refuses it
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        path = out / name
        path.write_bytes(corrupt(path.read_bytes()))
        assert tiny(command[0], out, *command[1:]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"{field} is " in err
        assert not (out / "students" / "typed").exists()

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:-100],       # last parameter block cut short
        lambda blob: blob[:10],         # header cut
        lambda blob: blob + b"\0\0",    # bytes after the last block
        # 8.0 == 8, so only the config's own check refuses it
        rewrite_header(lambda header: header["config"].update(hidden=8.0)),
        # one more token shifts every id after it
        rewrite_header(lambda header: header["vocabulary"]["tokens"].append("en:unseen")),
        rewrite_header(lambda header: header["vocabulary"].update(
            tokens=[1, *header["vocabulary"]["tokens"][1:]])),
        rewrite_header(lambda header: header["vocabulary"].update(oov_buckets=99)),
    ], ids=["truncated_block", "cut_header", "trailing_bytes", "float_hidden",
            "vocabulary_token_too_many", "vocabulary_non_string_token",
            "vocabulary_bucket_count"])
    def test_dump_logits_from_corrupt_checkpoint_is_exit_2(self, pipeline_dir, tmp_path,
                                                          corrupt, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        ckpt = out / "teachers" / "en" / "final.ckpt"
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        assert tiny("dump-logits", out, "--teacher", "en") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "is corrupt" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_evaluate_non_finite_checkpoint_is_exit_2(self, pipeline_dir, tmp_path, value,
                                                      capsys):
        ckpt = tmp_path / "final.ckpt"
        model = md.load_model(pipeline_dir / "teachers" / "en" / "final.ckpt")
        model.params["start_vec"][0] = value
        md.save_model(model, ckpt)
        assert tiny("evaluate", pipeline_dir, "--model", str(ckpt)) == 2
        assert "is corrupt" in capsys.readouterr().err

    def test_distill_on_uncovered_dataset_is_exit_2(self, pipeline_dir, capsys):
        # the eval grid's samples are not in the union the stores cover
        assert tiny("distill", pipeline_dir, "--run-name", "uncovered",
                    "--dataset", str(pipeline_dir / "datasets" / "eval_grid.jsonl")) == 2
        err = capsys.readouterr().err
        assert "samples lack teacher logits" in err
        # printed as a message, not quoted as a KeyError's key
        assert err.startswith("error: 36 samples lack teacher logits (first: ")
        assert not (pipeline_dir / "students" / "uncovered").exists()

    def test_distill_with_repeated_teacher_is_exit_2(self, pipeline_dir, capsys):
        assert tiny("distill", pipeline_dir, "--run-name", "repeated",
                    "--teachers", "en,en,es") == 2
        assert "repeat a teacher" in capsys.readouterr().err
        assert not (pipeline_dir / "students" / "repeated").exists()

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

    def test_branch_with_dataset_is_config_error(self, tmp_path, monkeypatch, capsys):
        # a teacher is named by its branch, so another branch's dataset
        # cannot train it; the pair is refused before anything is read
        tiny("generate", tmp_path)
        tiny("build", tmp_path)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()

        def read(path, *args):
            raise AssertionError(f"{path} was read")
        for name in ("read_samples", "read_json", "sha256_file"):
            monkeypatch.setattr(cp, name, read)
        dataset = tmp_path / "datasets" / "branch_de.jsonl"
        assert tiny("train-teacher", tmp_path, "--branch", "en", "--dataset", str(dataset)) == 2
        assert capsys.readouterr().err.startswith(
            "error: train-teacher takes --branch or --dataset, not both")
        assert sorted(tmp_path.rglob("*")) == before

    def test_teacher_determinism_across_reruns(self, pipeline_dir, tmp_path):
        out = tmp_path / "again"
        tiny("generate", out)
        tiny("build", out)
        assert tiny("train-teacher", out, "--branch", "en") == 0
        a = (pipeline_dir / "teachers" / "en" / "final.ckpt").read_bytes()
        b = (out / "teachers" / "en" / "final.ckpt").read_bytes()
        assert a == b

    # a distillation setting trains no teacher, so it keeps a finished one
    @pytest.mark.parametrize("setting", [
        [], ["--train.tau", "3"], ["--train.strategy", "impurity"],
        ["--train.impurity_sign", "-1"], ["--train.lambda2", "0.9"],
    ], ids=["same_config", "tau", "strategy", "impurity_sign", "lambda2"])
    def test_finished_teacher_is_kept(self, pipeline_dir, tmp_path, setting, monkeypatch,
                                      capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        final = out / "teachers" / "en" / "final.ckpt"
        os.utime(final, ns=(0, 0))
        forbid_training(monkeypatch)
        assert tiny("train-teacher", out, "--branch", "en", *setting) == 0
        assert final.stat().st_mtime_ns == 0
        assert "train-teacher en:" in capsys.readouterr().out

    def test_finished_student_with_same_stores_is_kept(self, pipeline_dir, tmp_path,
                                                       monkeypatch, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        assert tiny("distill", out, "--run-name", "kept") == 0
        final = out / "students" / "kept" / "final.ckpt"
        os.utime(final, ns=(0, 0))
        capsys.readouterr()
        forbid_training(monkeypatch)
        assert tiny("distill", out, "--run-name", "kept") == 0
        assert final.stat().st_mtime_ns == 0
        assert "distill kept:" in capsys.readouterr().out

    def test_student_with_another_temperature_is_refused(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        assert tiny("distill", out, "--run-name", "warm") == 0
        final = out / "students" / "warm" / "final.ckpt"
        before = final.read_bytes()
        capsys.readouterr()
        assert tiny("distill", out, "--run-name", "warm", "--train.tau", "3") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "different distill_config;" in err
        assert final.read_bytes() == before

    def test_student_whose_store_changed_is_refused(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        assert tiny("distill", out, "--run-name", "stale") == 0
        final = out / "students" / "stale" / "final.ckpt"
        before = final.read_bytes()
        assert tiny("dump-logits", out, "--teacher", "es",
                    "--model", str(out / "teachers" / "de" / "final.ckpt")) == 0
        capsys.readouterr()
        assert tiny("distill", out, "--run-name", "stale") == 2
        assert "different teacher_store_digests" in capsys.readouterr().err
        assert final.read_bytes() == before

    @pytest.mark.parametrize("flag, value", [("--train.lr", "0.009"), ("--model.ffn", "16")])
    def test_resume_with_different_config_is_config_error(self, pipeline_dir, flag, value):
        final = pipeline_dir / "teachers" / "en" / "final.ckpt"
        before = final.read_bytes()
        assert tiny("train-teacher", pipeline_dir, "--branch", "en", flag, value) == 2
        assert final.read_bytes() == before

    @pytest.mark.parametrize("key", ["vocab_size", "layers"])
    def test_manifest_with_a_removed_model_field_is_refused(self, pipeline_dir, tmp_path, key,
                                                            capsys):
        # the model config once held the embedding height, which is now the
        # vocabulary's size, and the encoder's depth, which is now one block;
        # a run directory written then is not reused
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        run_dir = out / "teachers" / "en"
        final = run_dir / "final.ckpt"
        before = final.read_bytes()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        value = md.load_model(final).vocab.size if key == "vocab_size" else 1
        manifest["model_config"] = {key: value, **manifest["model_config"]}
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert tiny("train-teacher", out, "--branch", "en") == 2
        assert "different model_config" in capsys.readouterr().err
        assert final.read_bytes() == before

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest.update(format_version=1),
        lambda manifest: manifest.update(format_version=2, final_checkpoint="final.ckpt",
                                         checkpoints=["epoch_001.ckpt", "epoch_002.ckpt"]),
        _as_version_3,
        lambda manifest: manifest.pop("format_version"),
    ], ids=["version_1", "version_2", "version_3", "no_version"])
    def test_manifest_of_another_format_is_never_reused(self, pipeline_dir, tmp_path, edit,
                                                        capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        assert tiny("distill", out, "--run-name", "student") == 0
        checkpoints = {}
        for run_dir in (out / "teachers" / "en", out / "students" / "student"):
            manifest = json.loads((run_dir / "manifest.json").read_text())
            edit(manifest)
            (run_dir / "manifest.json").write_text(json.dumps(manifest))
            checkpoints[run_dir / "final.ckpt"] = (run_dir / "final.ckpt").read_bytes()
        capsys.readouterr()
        for command in (["train-teacher", "--branch", "en"], ["distill", "--run-name", "student"],
                        ["ablate"]):
            assert tiny(command[0], out, *command[1:]) == 2
            assert "different format_version" in capsys.readouterr().err
        for path, blob in checkpoints.items():
            assert path.read_bytes() == blob

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

    def test_compare_refuses_nan_before_writing(self, tmp_path):
        report = ev.EvalReport(overall_em=float("nan"))
        with pytest.raises(ValueError):
            cli.op_compare([report, report], ["a", "b"], out_path=tmp_path / "cmp.json")
        assert list(tmp_path.iterdir()) == []


class TestAblate:
    def test_matrix_rows_and_baseline(self, tmp_path, capsys):
        tiny("generate", tmp_path)
        # a store left by an older format is redumped, not reused
        (tmp_path / "logits").mkdir()
        (tmp_path / "logits" / "es.logits").write_bytes(V1_STORE)
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

    def test_stale_teacher_is_refused(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_dir, out)
        final = out / "teachers" / "en" / "final.ckpt"
        before = final.read_bytes()
        assert tiny("ablate", out, "--model.ffn", "16") == 2
        assert "different model_config" in capsys.readouterr().err
        assert final.read_bytes() == before

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

    @pytest.mark.parametrize("value, records", [(7.9, None), (7.0, 7), (True, None)],
                             ids=["fractional", "integral_float", "boolean"])
    def test_config_file_integer_setting(self, tmp_path, value, records):
        # a config value for an integer key is never truncated or read as 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"corpus.records": value}))
        code = run(["generate", "--config", str(path), "--out-dir", str(tmp_path)])
        if records is None:
            assert code == 2
            assert not (tmp_path / "corpus.jsonl").exists()
        else:
            assert code == 0
            assert len((tmp_path / "corpus.jsonl").read_text().splitlines()) == records

    @pytest.mark.parametrize("key", [key for key, (parse, _, _) in cli.SCHEMA.items()
                                     if parse is str])
    @pytest.mark.parametrize("value", [False, 5, None], ids=["false", "5", "null"])
    def test_config_file_string_setting(self, tmp_path, key, value, capsys):
        # str() would turn any JSON value into a language or strategy name
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        assert run(["generate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "corpus.jsonl").exists()

    @pytest.mark.parametrize("value, code", [(False, 0), (0, 2), ("no", 2)],
                             ids=["false", "0", "no"])
    def test_config_file_boolean_setting(self, tmp_path, value, code, capsys):
        # a file's boolean is a JSON boolean; only flag text is read as a word
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"train.augment_source": value}))
        assert run(["generate", "--config", str(path), "--out-dir", str(tmp_path)]) == code
        if code:
            assert "train.augment_source" in capsys.readouterr().err
        assert (tmp_path / "corpus.jsonl").exists() == (code == 0)

    def test_only_declared_settings_are_exposed(self, tmp_path, capsys):
        # the settings are exactly these keys; a field declared without one,
        # such as a settings class's seed, is no flag
        assert set(cli.SCHEMA) == {
            "languages", "zero_shot_language", "corpus.records", "corpus.content_vocab",
            "corpus.cue_count", "corpus.question_words", "corpus.passage_min",
            "corpus.passage_max", "corpus.answer_max_len", "corpus.eval_fraction",
            "noise.token_drop_prob", "noise.token_swap_prob", "noise.marker_destroy_prob",
            "model.hidden", "model.ffn", "model.max_len", "train.epochs", "train.batch_size",
            "train.tau", "train.lambda1", "train.lambda2", "train.strategy",
            "train.impurity_sign", "train.lr", "train.weight_decay", "train.clip_norm",
            "train.augment_source", "eval.max_answer_length"}
        for flag in ("--corpus.rare_vocab_size", "--train.seed"):
            assert run(["generate", flag, "1", "--out-dir", str(tmp_path)]) == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_split_check_agrees_with_split_records(self):
        # the config refuses exactly the splits that would leave a side empty
        for records in range(1, 13):
            for fraction in [i / 20 for i in range(20)] + [0.05 / records, 0.5 / records]:
                train, held_out = cp.split_records(range(records), fraction)
                try:
                    cli.DataConfig(records=records, eval_fraction=fraction)
                    accepted = True
                except InvalidConfig:
                    accepted = False
                assert accepted == (bool(train) and bool(held_out)), (records, fraction)

    @pytest.mark.parametrize("key", ["nonsense.key", "model.layers"])
    @pytest.mark.parametrize("via_file", [False, True], ids=["flag", "config_file"])
    def test_unknown_config_key(self, tmp_path, key, via_file):
        args = [f"--{key}", "1"]
        if via_file:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({key: 1}))
            args = ["--config", str(path)]
        assert run(["generate", *args, "--out-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "corpus.jsonl").exists()

    @pytest.mark.parametrize("via_file", [False, True], ids=["flag", "config_file"])
    def test_non_numeric_value_is_config_error(self, tmp_path, via_file, capsys):
        args = ["--corpus.records", "many"]
        if via_file:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"corpus.records": "many"}))
            args = ["--config", str(path)]
        assert run(["generate", "--out-dir", str(tmp_path), *args]) == 2
        assert "corpus.records" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        ["--train.clip_norm", "nan"], ["--train.clip_norm", "inf"], ["--train.tau", "inf"],
        '{"train.tau": Infinity}', '{"train.epochs": Infinity}',
        ["--corpus.records", "1" + "0" * 400],
    ], ids=["clip_norm_nan", "clip_norm_inf", "tau_inf", "config_tau_infinity",
            "config_epochs_infinity", "records_past_float_range"])
    def test_non_finite_setting_is_config_error(self, tmp_path, setting, capsys):
        # refused before training, not after the last epoch when no manifest
        # can record it
        tiny("generate", tmp_path)
        tiny("build", tmp_path)
        if isinstance(setting, str):
            path = tmp_path / "config.json"
            path.write_text(setting)
            setting = ["--config", str(path)]
        assert tiny("train-teacher", tmp_path, "--branch", "en", *setting) == 2
        assert "bad value" in capsys.readouterr().err
        assert not (tmp_path / "teachers" / "en").exists()

    @pytest.mark.parametrize("command, setting, message", [
        ("train-teacher", ["--train.tau", "0"], "tau must be positive"),
        ("train-teacher", ["--train.impurity_sign", "0"], "impurity_sign"),
        ("train-teacher", ["--train.lr", "-1"], "must be non-negative"),
        ("train-teacher", ["--train.weight_decay", "-1"], "must be non-negative"),
        ("distill", ["--train.tau", "0"], "tau must be positive"),
    ], ids=["teacher_tau_0", "teacher_impurity_sign_0", "teacher_lr_negative",
            "teacher_weight_decay_negative", "distill_tau_0"])
    def test_out_of_range_setting_is_config_error(self, pipeline_dir, command, setting,
                                                  message, capsys):
        # building TrainConfig or DistillConfig is the one check of these settings
        extra = ["--branch", "en"] if command == "train-teacher" else []
        assert tiny(command, pipeline_dir, *extra, "--run-name", "out_of_range", *setting) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (pipeline_dir / "teachers" / "out_of_range").exists()
        assert not (pipeline_dir / "students" / "out_of_range").exists()

    def test_empty_out_dir_is_config_error(self, tmp_path, monkeypatch, capsys):
        # an empty --out-dir names no directory; it is refused, not replaced
        monkeypatch.chdir(tmp_path)
        assert run(["generate", "--out-dir", "", *TINY]) == 2
        assert capsys.readouterr().err == "error: --out-dir must name a directory, got ''\n"
        assert list(tmp_path.iterdir()) == []

    def test_no_two_flags_look_alike(self):
        # a flag that differs from another only in - against _ is a second
        # name that parses to another value
        parser = cli.build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        for command, sub in commands.items():
            names = [flag.replace("-", "_") for action in sub._actions
                     for flag in action.option_strings]
            assert len(names) == len(set(names)), command

    def test_config_file_beats_a_subcommand_default(self, tmp_path):
        # field default < subcommand default < --config file < flag
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"corpus.records": 100, "noise.token_drop_prob": 0.0,
                                    "noise.token_swap_prob": 0.2}))

        def resolved(*flags):
            cfg = cli.resolve_config(cli.build_parser().parse_args(
                ["noise-study", "--config", str(path), *flags]))
            return (cfg.data.records, cfg.noise.token_drop_prob, cfg.noise.token_swap_prob,
                    cfg.noise.marker_destroy_prob, cfg.data.eval_fraction)

        assert resolved() == (100, 0.0, 0.2, 0.1, 0.2)
        assert resolved("--corpus.records", "50", "--noise.token_swap_prob", "0.3") == \
            (50, 0.0, 0.3, 0.1, 0.2)

    def test_unknown_mode_is_usage_error(self, tmp_path):
        assert run(["build", "--mode", "bogus", "--out-dir", str(tmp_path)]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", [
        "generate", "build", "train-teacher", "dump-logits",
        "distill", "evaluate", "ablate", "compare", "pipeline", "noise-study",
    ])
    def test_help_documents_output_affecting_flags(self, command, capsys):
        assert run([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--seed" in text
        assert "--out-dir" in text
        assert "--config" in text
        if command in ("generate", "build", "train-teacher", "distill"):
            assert "--train.epochs" in text and "--corpus.records" in text

    @pytest.mark.parametrize("command, shown", [
        ("generate", {"--seed": "0", "--out-dir": "runs", "--corpus.records": "500",
                      "--noise.token_drop_prob": "0.0"}),
        ("pipeline", {"--seed": "7", "--out-dir": "runs/pipeline", "--corpus.records": "500"}),
        ("noise-study", {"--seed": "0", "--out-dir": "runs/noise_study",
                         "--corpus.records": "300", "--noise.token_drop_prob": "0.1",
                         "--noise.token_swap_prob": "0.1", "--noise.marker_destroy_prob": "0.1"}),
    ], ids=["generate", "pipeline", "noise-study"])
    def test_help_shows_the_defaults_the_command_runs_with(self, command, shown, capsys):
        assert run([command, "--help"]) == 0
        # the flags' entries, past the usage lines
        text = " ".join(capsys.readouterr().out.split("options:")[1].split())

        def default_shown(flag):
            match = re.search(rf"{re.escape(flag)} \S+ .*?\(default ([^)]*)\)", text)
            return match and match.group(1)

        assert {flag: default_shown(flag) for flag in shown} == shown
        # every setting's flag shows the value its settings object holds
        cfg = cli.resolve_config(cli.build_parser().parse_args([command]))
        held = {f.metadata["key"]: getattr(settings, f.name)
                for settings in (cfg.data, cfg.task, cfg.noise, cfg.model, cfg.train,
                                 cfg.distill, cfg.eval_config)
                for f in dataclasses.fields(settings) if f.metadata}
        assert set(held) == set(cli.SCHEMA)
        assert {key: default_shown(f"--{key}") for key in held} == \
            {key: str(value) for key, value in held.items()}
        assert (str(cfg.seed), str(cfg.out_dir)) == (shown["--seed"], shown["--out-dir"])

    def test_help_with_percent_in_text(self, monkeypatch, capsys):
        parser, default, _ = cli.SCHEMA["train.lr"]
        monkeypatch.setitem(cli.SCHEMA, "train.lr", (parser, default, "peak rate, 10% warmup"))
        assert run(["generate", "--help"]) == 0
        assert "10% warmup" in capsys.readouterr().out


def tiny_config(out_dir, seed="3"):
    args = cli.build_parser().parse_args(
        ["generate", "--seed", seed, "--out-dir", str(out_dir), *TINY])
    return cli.resolve_config(args)


ERROR_TYPES = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, Exception) and obj.__module__ == errors.__name__]


class TestErrorBoundary:
    def test_only_errors_defines_exception_types(self):
        # so ERROR_TYPES, and the test below, see every type the package raises
        defined = {
            f"{info.name}.{name}"
            for info in pkgutil.iter_modules(branchdistill.__path__, "branchdistill.")
            for name, obj in inspect.getmembers(importlib.import_module(info.name), inspect.isclass)
            if issubclass(obj, BaseException) and obj.__module__ == info.name
        }
        assert defined == {f"{errors.__name__}.{cls.__name__}" for cls in ERROR_TYPES}

    @pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda cls: cls.__name__)
    def test_every_error_type_has_a_documented_exit_code(self, error, capsys):
        def fail():
            raise error("what went wrong")

        assert cli.guarded(fail) == (3 if issubclass(error, MissingArtifact) else 2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.rstrip().endswith("what went wrong")


class TestDrivers:
    def test_pipeline_reports_one_file_per_stem(self, tmp_path):
        cfg = tiny_config(tmp_path)
        reports = cli.run_pipeline(cfg)
        assert set(reports) == {
            "teacher_en", "teacher_es", "teacher_de", "student_hyper", "student_imp",
            "student_hyper_zero_shot_zz", "student_imp_zero_shot_zz",
        }
        for stem, report in reports.items():
            assert ev.EvalReport.load(cfg.reports_dir / f"{stem}.json") == report

    def test_unknown_strategy_is_config_error(self, tmp_path):
        with pytest.raises(InvalidConfig, match="unknown selective strategy 'bogus'"):
            cli.run_pipeline(tiny_config(tmp_path), ("impurity", "bogus"))
        assert list(tmp_path.iterdir()) == []


class TestExperimentCommands:
    def experiment(self, command, out_dir, *extra):
        return run([command, "--out-dir", str(out_dir), *TINY], *extra)

    def test_pipeline(self, tmp_path):
        assert self.experiment("pipeline", tmp_path) == 0
        comparison = json.loads((tmp_path / "reports" / "pipeline_comparison.json").read_text())
        assert [row["name"] for row in comparison["rows"]] == [
            "teacher_en", "teacher_es", "teacher_de", "student_hyper", "student_imp"]

    @pytest.mark.parametrize("command, setting, named", [
        ("pipeline", ["--corpus.records", "many"], "corpus.records"),
        ("pipeline", ["--eval.max_answer_length", "0"], "max_answer_length"),
        ("pipeline", ["--train.epochs", "0"], "epochs"),
        ("pipeline", ["--train.batch_size", "0"], "batch_size"),
        ("pipeline", ["--train.tau", "0"], "tau"),
        ("pipeline", ["--train.strategy", "bogus"], "strategy"),
        ("pipeline", ["--train.impurity_sign", "0"], "impurity_sign"),
        ("pipeline", ["--model.hidden", "3"], "hidden"),
        ("pipeline", ["--model.max_len", "3"], "max_len"),
        ("pipeline", ["--corpus.eval_fraction", "1.0"], "corpus.eval_fraction"),
        ("pipeline", ["--corpus.eval_fraction", "0.98"], "records 20 with corpus.eval_fraction"),
        ("pipeline", ["--corpus.eval_fraction", "0.0"], "records 20 with corpus.eval_fraction"),
        ("pipeline", ["--zero_shot_language", "es"], "zero_shot_language 'es' is a training"),
        ("noise-study", ["--corpus.records", "many"], "corpus.records"),
        ("noise-study", ["--eval.max_answer_length", "0"], "max_answer_length"),
        ("noise-study", ["--seeds", "x"], "--seeds"),
        ("noise-study", ["--seeds", "3,,4"], "--seeds"),
        ("noise-study", ["--seeds", "3,-1"], "seed"),
    ], ids=["pipeline", "pipeline-max_answer_length_0", "pipeline-epochs_0",
            "pipeline-batch_size_0", "pipeline-tau_0", "pipeline-strategy_bogus",
            "pipeline-impurity_sign_0", "pipeline-hidden_3", "pipeline-max_len_3",
            "pipeline-eval_fraction_1", "pipeline-no_training_record",
            "pipeline-no_evaluation_record", "pipeline-zero_shot_trained", "noise-study",
            "noise-study-max_answer_length_0",
            "noise-study-seeds_text", "noise-study-seeds_empty", "noise-study-seeds_negative"])
    def test_bad_setting_is_exit_2(self, tmp_path, command, setting, named, capsys):
        # refused before any stage writes, not at the first evaluate or after training
        out = tmp_path / "out"
        assert self.experiment(command, out, *setting) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not out.exists()

    def test_noise_study(self, tmp_path, capsys):
        code = self.experiment("noise-study", tmp_path, "--seeds", "3,4")
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert (code, verdict) in ((0, "robustness direction CONFIRMED"),
                                   (1, "robustness direction NOT confirmed"))
        assert (tmp_path / "seed3").is_dir() and (tmp_path / "seed4").is_dir()

    @pytest.mark.parametrize("pairs, code", [
        ([(0.5, 0.25), (0.25, 0.25)], 0),
        ([(0.5, 0.5), (0.25, 0.25)], 0),
        ([(0.25, 0.5), (0.25, 0.25)], 1),
    ], ids=["above", "tie", "below"])
    def test_noise_study_exit_code_is_verdict(self, tmp_path, monkeypatch, capsys, pairs, code):
        seen = []
        monkeypatch.setattr(cli, "noise_study", lambda cfg, seeds: seen.append(seeds) or pairs)
        assert self.experiment("noise-study", tmp_path, "--seeds", "3,4") == code
        assert seen == [[3, 4]]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (f"seed 3: student macro-EM {pairs[0][0]:.4f} | "
                            f"translate-train macro-EM {pairs[0][1]:.4f}")
        assert lines[-1].endswith("NOT confirmed" if code else "CONFIRMED")
