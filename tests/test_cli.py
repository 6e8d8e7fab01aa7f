import argparse
import errno
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegatebox import Alternative, Instance, instance_digest, instance_to_json, make_distribution
from delegatebox import instances
from delegatebox.cli import FORMATS, MECHANISMS, REGIMES, _build_parser, main
from delegatebox.core import InvalidParameters, instance_from_obj

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, instance, name="instance.json"):
    path = tmp_path / name
    path.write_text(instance_to_json(instance))
    return str(path)


def test_gen_writes_a_loadable_instance(tmp_path, capsys):
    out = tmp_path / "gap.json"
    code, _, _ = run_cli(
        capsys, "gen", "--family", "tightness", "--eps", "1/100", "--out", str(out)
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["generator"]["family"] == "tightness"
    assert len(payload["instance"]["alternatives"]) == 3
    assert payload["generator"]["params"] == {"eps": "1/100"}


def test_gen_then_eval_pnoi(tmp_path, capsys):
    out = tmp_path / "gap.json"
    run_cli(capsys, "gen", "--family", "tightness", "--eps", "1/100", "--out", str(out))
    digest = json.loads(out.read_text())["instance_digest"]
    for mode, value in (("exact", "2.9701"), ("float", 2.9701)):
        code, stdout, _ = run_cli(
            capsys, "eval", "--instance", str(out), f"--{mode}", "--mechanism", "pnoi",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["value"] == value
        assert report["arithmetic_mode"] == mode
        if mode == "exact":
            assert report["instance_digest"] == digest


@pytest.mark.parametrize("family", instances.FAMILIES)
def test_a_gen_file_evaluates_as_its_family_and_as_its_bare_instance(tmp_path, capsys, family):
    seed = ["--seed", "3"] if family == "random" else []
    out, bare = tmp_path / "gen.json", tmp_path / "bare.json"
    assert run_cli(capsys, "gen", "--family", family, *seed, "--out", str(out))[0] == 0
    bare.write_text(json.dumps(json.loads(out.read_text())["instance"]))
    sources = (["--family", family, *seed], ["--instance", str(out)], ["--instance", str(bare)])
    for mode in ("--exact", "--float"):
        reports = []
        for source in sources:
            argv = ["eval", *source, mode, "--mechanism", "spmi", "--format", "json"]
            code, stdout, stderr = run_cli(capsys, *argv)
            assert (code, stderr) == (0, "")
            reports.append(json.loads(stdout))
        assert reports[0].pop("generator")["family"] == family
        assert reports[0] == reports[1] == reports[2]


def test_a_gen_file_that_does_not_match_its_digest_exits_2(tmp_path, capsys):
    out = tmp_path / "gap.json"
    run_cli(capsys, "gen", "--family", "tightness", "--out", str(out))
    payload = json.loads(out.read_text())
    tampered = {**payload, "instance_digest": "0123456789ab"}
    moved = {**payload, "instance": {**payload["instance"], "delegation_cost": "1/2"}}
    for obj in (tampered, moved):
        out.write_text(json.dumps(obj))
        actual = instance_digest(instance_from_obj(obj["instance"]))
        message = f"instance_digest {obj['instance_digest']!r} does not match the instance's"
        error = {"type": "InvalidParameters", "message": f"{message} {actual!r}"}
        for mode in ("--exact", "--float"):
            argv = ["eval", "--instance", str(out), mode, "--mechanism", "pnoi"]
            code, stdout, stderr = run_cli(capsys, *argv)
            assert (code, stdout, json.loads(stderr)) == (2, "", {"error": error})
    del moved["instance_digest"]
    out.write_text(json.dumps(moved))
    assert run_cli(capsys, "eval", "--instance", str(out), "--mechanism", "pnoi")[0] == 0


def test_a_cost_table_loads_on_a_monotone_model_only(tmp_path, capsys):
    boxes = [{"support": [[0, "1/2"], [4, "1/2"]], "cost": 0}] * 2
    table = {"": 0, "0": 1, "1": 1, "0,1": 1}

    def run(cost_model):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"alternatives": boxes, "cost_model": cost_model}))
        argv = ["eval", "--instance", str(path), "--mechanism", "spmi", "--format", "json"]
        return run_cli(capsys, *argv)

    code, stdout, stderr = run({"type": "additive", "table": table})
    assert (code, stdout) == (2, "")
    error = {"type": "InvalidParameters", "message": "an additive cost model takes no table"}
    assert json.loads(stderr) == {"error": error}
    code, stdout, _ = run({"type": "additive"})
    assert code == 0 and json.loads(stdout)["value"] == "3"
    code, stdout, _ = run({"type": "monotone", "table": table})
    assert code == 0 and json.loads(stdout)["value"] == "2.25"


# Two boxes under a monotone table whose singletons cost the same.
MONOTONE_INSTANCE = {
    "alternatives": [{"support": [[0, "1/2"], [4, "1/2"]], "cost": 0}] * 2,
    "cost_model": {"type": "monotone", "table": {"": 0, "0": 1, "1": 1, "0,1": 1}},
}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_monotone_model_is_refused_where_the_search_dp_runs(tmp_path, capsys, mode):
    # The search DP does not charge set costs yet, so pnoi_optimal, and
    # weitzman_value with it, refuse a monotone model; the mechanisms that
    # read only singleton costs evaluate it.
    path = tmp_path / "monotone.json"
    path.write_text(json.dumps(MONOTONE_INSTANCE))
    digest = instance_digest(instance_from_obj(MONOTONE_INSTANCE, mode))
    source = ["--instance", str(path), f"--{mode}"]
    refused = {
        ("eval", "--mechanism", "pnoi"): "pnoi_optimal",
        ("eval", "--mechanism", "costly"): "pnoi_optimal",
        ("eval", "--mechanism", "weitzman"): "weitzman_value",
        ("audit", "--regime", "costly", "--alpha", "0"): "pnoi_optimal",
    }
    for argv, what in refused.items():
        code, stdout, stderr = run_cli(capsys, *argv, *source)
        message = f"{what} requires an additive cost model"
        error = {"type": "InvalidParameters", "message": message, "instance_digest": digest}
        assert (code, stdout, json.loads(stderr)) == (2, "", {"error": error})
    for mechanism in ("maximal", "spmi", "identical"):
        code, stdout, stderr = run_cli(capsys, "eval", "--mechanism", mechanism, *source)
        assert (code, stderr) == (0, "")
        assert f"instance_digest: {digest}" in stdout.splitlines()


def test_eval_single_deterministic_box(tmp_path, capsys):
    inst = Instance((Alternative(make_distribution([(7, 1)]), 2),))
    path = write_instance(tmp_path, inst)
    code, stdout, _ = run_cli(
        capsys, "eval", "--instance", path, "--mechanism", "pnoi", "--format", "json"
    )
    assert code == 0
    assert json.loads(stdout)["value"] == "7"


def test_eval_generated_family_inline(capsys):
    code, stdout, _ = run_cli(
        capsys, "eval", "--family", "spmi_fail", "--mechanism", "spmi",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["value"] == "0"
    assert report["generator"]["family"] == "spmi_fail"


def test_audit_costless_random_instance(capsys):
    code, stdout, _ = run_cli(
        capsys, "audit", "--family", "random", "--seed", "3", "--n", "3",
        "--regime", "costless", "--format", "json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    assert report["claimed_bound"] == "3"


def test_audit_failure_exit_code_is_distinct(tmp_path, capsys):
    # an audit that cannot apply: costless regime on a costly instance
    inst = Instance((Alternative(make_distribution([(1, 1)]), 0),), delegation_cost=1)
    path = write_instance(tmp_path, inst)
    code, _, stderr = run_cli(
        capsys, "audit", "--instance", path, "--regime", "costless"
    )
    assert code == 2
    record = json.loads(stderr)
    assert record["error"]["type"] == "NotCostless"


def costly_instance_path(tmp_path, max_n):
    # Delegation cost 1/4 of E[max (X_i - c_i)+], as `--alpha 1/4` needs.
    from delegatebox.instances import random_corpus

    base = next(random_corpus(seed=6, count=1, max_n=max_n))
    surplus = base.expected_surplus()
    inst = Instance(base.alternatives, base.cost_model, F(1, 4) * surplus)
    return write_instance(tmp_path, inst)


def test_audit_costly_regime_with_alpha(tmp_path, capsys):
    path = costly_instance_path(tmp_path, 3)
    code, stdout, _ = run_cli(
        capsys, "audit", "--instance", path, "--regime", "costly",
        "--alpha", "1/4", "--format", "json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    assert report["claimed_bound"] == "4"
    assert report["mechanism"] == "costly"


def test_costly_audit_solves_the_dp_once(tmp_path, capsys, monkeypatch):
    from delegatebox import pandora

    path = costly_instance_path(tmp_path, 6)
    argv = ["audit", "--instance", path, "--regime", "costly", "--alpha", "1/4"]
    want = run_cli(capsys, *argv, "--format", "json")
    solve, calls = pandora.pnoi_optimal, []

    def counting(instance, *args, **kwargs):
        calls.append(instance)
        return solve(instance, *args, **kwargs)

    monkeypatch.setattr(pandora, "pnoi_optimal", counting)
    assert run_cli(capsys, *argv, "--format", "json") == want
    assert len(calls) == 1


def test_missing_instance_file_yields_error_record(capsys):
    code, _, stderr = run_cli(
        capsys, "eval", "--instance", "/nonexistent.json", "--mechanism", "pnoi"
    )
    assert code == 2
    assert json.loads(stderr)["error"]["type"] == "IOError"


RANDOM = ["--family", "random", "--seed", "3", "--n", "3"]
ONE_BOX = {"alternatives": [{"support": [[1, 1]]}]}


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env,
    )


def test_scripts_run_end_to_end():
    audit = run_script("audit_corpus.py", "--seed", "7", "--count", "20")
    assert audit.returncode == 0, audit.stderr
    assert "instances audited: 20" in audit.stdout
    for count in ("0", "-3"):
        rejected = run_script("audit_corpus.py", "--count", count)
        assert rejected.returncode == 2
        assert "--count must be at least 1" in rejected.stderr
        assert "Traceback" not in rejected.stderr


def instance_bytes(obj) -> bytes:
    return json.dumps(obj).encode()


# (arguments, instance file bytes appended as --instance or None, DELEGATEBOX_* env)
BAD_INPUTS = {
    "non_json_instance_file": (["eval", "--mechanism", "pnoi"], b"alternatives: not json", {}),
    "support_row_without_probability": (
        ["eval", "--mechanism", "pnoi"],
        instance_bytes({"alternatives": [{"support": [[1]], "cost": "0"}]}),
        {},
    ),
    "zero_denominator_float": (
        ["eval", "--mechanism", "pnoi", "--float"],
        instance_bytes({"alternatives": [{"support": [["1/0", 1]]}]}),
        {},
    ),
    "bool_number_float": (
        ["eval", "--mechanism", "pnoi", "--float"],
        instance_bytes({"alternatives": [{"support": [[1, 1]], "cost": True}]}),
        {},
    ),
    "bool_number_exact": (
        ["eval", "--mechanism", "pnoi"],
        instance_bytes({"alternatives": [{"support": [[1, 1]], "cost": True}]}),
        {},
    ),
    "cost_model_list_exact": (
        ["eval", "--mechanism", "pnoi"],
        instance_bytes({**ONE_BOX, "cost_model": []}),
        {},
    ),
    "cost_model_list_float": (
        ["eval", "--mechanism", "pnoi", "--float"],
        instance_bytes({**ONE_BOX, "cost_model": []}),
        {},
    ),
    "non_utf8_instance_file": (["eval", "--mechanism", "pnoi"], b"\xff\xfe{}", {}),
    "bad_alpha_float": (
        ["audit", *RANDOM, "--regime", "costless", "--float", "--alpha", "abc"], None, {}
    ),
    "alpha_outside_costly": (
        ["audit", "--family", "spmi_fail", "--regime", "costless", "--alpha", "1/4"], None, {}
    ),
    "bad_env_seed_repro": (["repro"], None, {"SEED": "x"}),
    "bad_env_seed_family": (
        ["eval", "--family", "random", "--mechanism", "pnoi"], None, {"SEED": "x"}
    ),
    "bad_env_mode_family": (["eval", *RANDOM, "--mechanism", "pnoi"], None, {"MODE": "xyz"}),
    "bad_env_mode_instance": (
        ["eval", "--mechanism", "pnoi"], instance_bytes(ONE_BOX), {"MODE": "xyz"}
    ),
    "bad_env_format_eval": (["eval", *RANDOM, "--mechanism", "pnoi"], None, {"FORMAT": "xyz"}),
    "bad_env_format_repro": (["repro"], None, {"FORMAT": "xyz"}),
    "random_negative_value_max": (
        ["eval", "--family", "random", "--seed", "1", "--value-max", "-1", "--mechanism", "pnoi"],
        None,
        {},
    ),
    "random_negative_cost_max": (
        ["eval", *RANDOM, "--cost-max", "-1", "--mechanism", "pnoi"], None, {}
    ),
    "random_negative_cdel_max": (["gen", *RANDOM, "--cdel-max", "-1"], None, {}),
    "zero_n_eval": (
        ["eval", "--family", "info_value", "--n", "0", "--mechanism", "pnoi"], None, {}
    ),
    "zero_n_gen": (["gen", "--family", "identical_binary", "--n", "0"], None, {}),
    "zero_n_random": (["gen", "--family", "random", "--seed", "1", "--n", "0"], None, {}),
    "unknown_cost_model_type": (
        ["eval", "--mechanism", "pnoi"],
        instance_bytes({**ONE_BOX, "cost_model": {"type": "foo"}}),
        {},
    ),
    "random_value_max_zero": (
        ["eval", "--family", "random", "--seed", "1", "--value-max", "0", "--mechanism", "pnoi"],
        None,
        {},
    ),
    "random_support_above_grid": (
        ["eval", *RANDOM, "--support-size", "40", "--mechanism", "pnoi"], None, {}
    ),
    "float_overflow_cost": (
        ["eval", "--family", "identical_binary", "--c", "1e400", "--mechanism", "spmi", "--float"],
        None,
        {},
    ),
    "empty_eps": (["eval", "--family", "tightness", "--eps", "", "--mechanism", "maximal"], None, {}),
    "empty_p": (["gen", "--family", "identical_binary", "--p", ""], None, {}),
    "random_without_seed": (["gen", "--family", "random", "--n", "3"], None, {"SEED": ""}),
    "foreign_family_flags": (
        ["eval", "--family", "tightness", "--n", "5", "--p", "1/2", "--seed", "3",
         "--mechanism", "pnoi"],
        None,
        {},
    ),
    "family_flags_with_instance": (
        ["eval", "--n", "5", "--eps", "1/2", "--mechanism", "pnoi"], instance_bytes(ONE_BOX), {}
    ),
    "foreign_eps_gen": (["gen", "--family", "spmi_fail", "--eps", "1/2"], None, {}),
    "instance_and_family": (
        ["eval", "--family", "spmi_fail", "--mechanism", "pnoi"], instance_bytes(ONE_BOX), {}
    ),
    "neither_instance_nor_family": (["eval", "--mechanism", "pnoi"], None, {}),
    "gen_without_family": (["gen"], None, {}),
    # argparse's own rejections end in the same record.
    "unknown_flag": (["eval", *RANDOM, "--mechanism", "pnoi", "--bogus"], None, {}),
    "invalid_mechanism": (["eval", "--family", "tightness", "--mechanism", "foo"], None, {}),
    "non_int_n": (["eval", "--family", "tightness", "--n", "x", "--mechanism", "pnoi"], None, {}),
    "missing_mechanism": (["eval", "--family", "tightness"], None, {}),
    "exact_and_float": (
        ["eval", "--family", "tightness", "--mechanism", "pnoi", "--exact", "--float"], None, {}
    ),
    "no_subcommand": ([], None, {}),
    "gen_with_instance": (["gen", "--family", "spmi_fail"], instance_bytes(ONE_BOX), {}),
    "gen_with_format": (["gen", "--family", "spmi_fail", "--format", "json"], None, {}),
    "float_overflow_value": (
        ["eval", "--family", "tightness", "--eps", "1e-400", "--mechanism", "maximal", "--float"],
        None,
        {},
    ),
    "deeply_nested_instance": (
        ["eval", "--mechanism", "pnoi"], b"[" * 100000 + b"]" * 100000, {}
    ),
    "int_literal_beyond_digit_limit": (
        ["eval", "--mechanism", "pnoi"],
        b'{"alternatives": [{"support": [[1, 1]], "cost": ' + b"1" * 5000 + b"}]}",
        {},
    ),
    "huge_exponent_cost_exact": (
        ["eval", "--mechanism", "pnoi"],
        instance_bytes({"alternatives": [{"support": [[1, 1]], "cost": "1e5000000"}]}),
        {},
    ),
    "exact_answer_beyond_digit_limit": (
        ["eval", "--family", "identical_binary", "--n", "6000", "--p", "1/7", "--c", "0",
         "--mechanism", "spmi", "--format", "json"],
        None,
        {},
    ),
    # info_value's steering tables hold n^3 set members; the size is checked
    # before any table is built (1,728,000,000 and 729,000,000 here).
    "policy_deeper_than_the_stack": (["gen", "--family", "info_value", "--n", "1200"], None, {}),
    "info_value_tables_too_large": (["gen", "--family", "info_value", "--n", "900"], None, {}),
}
# Entries whose record carries another error type than InvalidParameters.
BAD_INPUT_TYPES = {
    "policy_deeper_than_the_stack": "StateLimitExceeded",
    "info_value_tables_too_large": "StateLimitExceeded",
}
# The name each argparse rejection's message holds; the rest of its wording
# differs across Python versions, so it is not checked.
BAD_INPUT_FLAGS = {
    "unknown_flag": "--bogus",
    "invalid_mechanism": "--mechanism",
    "non_int_n": "--n",
    "missing_mechanism": "--mechanism",
    "exact_and_float": "--float",
    "no_subcommand": "command",
    "gen_with_instance": "--instance",
    "gen_with_format": "--format",
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_yields_one_error_record(tmp_path, capsys, monkeypatch, name):
    argv, instance, env = BAD_INPUTS[name]
    if instance is not None:
        path = tmp_path / "instance.json"
        path.write_bytes(instance)
        argv = [*argv, "--instance", str(path)]
    for var, value in env.items():
        monkeypatch.setenv(f"DELEGATEBOX_{var}", value)
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.endswith("\n") and stderr.count("\n") == 1
    error = json.loads(stderr)["error"]
    assert error["type"] == BAD_INPUT_TYPES.get(name, "InvalidParameters")
    assert BAD_INPUT_FLAGS.get(name, "") in error["message"]


@pytest.mark.parametrize("argv", [[], ["eval"], ["audit"], ["repro"], ["gen"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: delegatebox") and captured.err == ""


# With --n 17 both end in StateLimitExceeded: 17 distinct boxes need
# 2^17 * 12 DP states. With --n 0 the family fails to build.
AFTER_LOAD_ERRORS = {
    "eval": ["--mechanism", "pnoi"],
    "audit": ["--regime", "costly", "--alpha", "1/4"],
}


@pytest.mark.parametrize("command", AFTER_LOAD_ERRORS)
def test_errors_after_the_load_name_the_instance(capsys, command):
    family = ["--family", "random", "--seed", "1", "--n"]
    _, stdout, _ = run_cli(capsys, "gen", *family, "17")
    digest = json.loads(stdout)["instance_digest"]
    code, stdout, stderr = run_cli(capsys, command, *family, "17", *AFTER_LOAD_ERRORS[command])
    assert code == 2 and stdout == ""
    record = json.loads(stderr)
    assert set(record) == {"error"}
    assert record["error"]["type"] == "StateLimitExceeded"
    assert record["error"]["instance_digest"] == digest
    # An error raised before the load keeps the record without a digest.
    code, _, stderr = run_cli(capsys, command, *family, "0", *AFTER_LOAD_ERRORS[command])
    assert code == 2
    assert set(json.loads(stderr)["error"]) == {"type", "message"}


def test_an_io_error_after_the_load_names_the_instance(capsys, monkeypatch):
    argv = ["eval", "--family", "spmi_fail", "--mechanism", "spmi", "--format", "json"]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    digest = json.loads(stdout)["instance_digest"]

    class FailingStdout(io.StringIO):
        def write(self, text):
            raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(sys, "stdout", FailingStdout())
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(stderr) == {
        "error": {"type": "IOError", "message": "[Errno 5] Input/output error",
                  "instance_digest": digest}
    }


def test_repro_prints_one_table_block_per_row_by_default(capsys):
    code, table, _ = run_cli(capsys, "repro")
    assert code == 0
    result = json.loads(run_cli(capsys, "repro", "--format", "json")[1])
    lines = table.splitlines()
    heads = sorted(f"{k}: {v}" for k, v in result.items() if k != "rows")
    assert sorted(lines[:4] + lines[-1:]) == heads
    blocks = []  # (row line, its detail lines)
    for line in lines[4:-1]:
        if line.startswith("        "):
            blocks[-1][1].append(line)
        else:
            blocks.append((line, []))
    assert len(blocks) == len(result["rows"])
    for (head, details), row in zip(blocks, result["rows"]):
        assert head == f"[pass] {row['name']}"
        assert sorted(details) == sorted(f"        {k} = {v}" for k, v in row["details"].items())


def test_a_closed_stdout_ends_quietly_with_141():
    # gen's output (about 300 kB) is more than a pipe holds, so the writer
    # is still writing when its reader has left.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "delegatebox", "gen", "--family", "info_value", "--n", "20"]
    # The with block closes both pipes, so none is left to the garbage collector.
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(), stderr) == (141, b"")


def test_each_command_reads_only_the_overrides_it_uses(capsys, monkeypatch):
    gen = ["gen", "--family", "spmi_fail"]
    want = run_cli(capsys, *gen)
    assert want[0] == 0
    monkeypatch.setenv("DELEGATEBOX_MODE", "xyz")
    monkeypatch.setenv("DELEGATEBOX_FORMAT", "xyz")
    assert run_cli(capsys, *gen) == want
    monkeypatch.delenv("DELEGATEBOX_FORMAT")
    assert run_cli(capsys, "repro", "--format", "json")[0] == 0
    monkeypatch.delenv("DELEGATEBOX_MODE")
    monkeypatch.setenv("DELEGATEBOX_SEED", "x")
    assert run_cli(capsys, "eval", "--family", "spmi_fail", "--mechanism", "spmi")[0] == 0


def test_float_mode_flag(tmp_path, capsys):
    inst = Instance((Alternative(make_distribution([(0, "0.5"), (1, "0.5")]), "0.25"),))
    path = write_instance(tmp_path, inst)
    code, stdout, _ = run_cli(
        capsys, "eval", "--instance", path, "--mechanism", "weitzman", "--float",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["arithmetic_mode"] == "float"
    assert abs(report["value"] - 0.25) < 1e-9


@pytest.mark.parametrize(
    "flags",
    [
        # Two values that round to one double, 0.0, merge into one atom.
        ("--v", "1e-400"),
        # A probability that rounds to 0.0 drops its atom.
        ("--p", "1e-400"),
    ],
)
def test_float_digest_is_the_same_from_the_family_and_from_its_json(tmp_path, capsys, flags):
    family = ("--family", "identical_binary", "--n", "2", *flags)
    out = tmp_path / "gen.json"
    assert run_cli(capsys, "gen", *family, "--out", str(out))[0] == 0
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(json.loads(out.read_text())["instance"]))
    digests = []
    for source in (family, ("--instance", str(path))):
        code, stdout, _ = run_cli(
            capsys, "eval", *source, "--float", "--mechanism", "maximal", "--format", "json"
        )
        assert code == 0
        digests.append(json.loads(stdout)["instance_digest"])
    assert digests[0] == digests[1]


def test_env_format_override(tmp_path, capsys, monkeypatch):
    inst = Instance((Alternative(make_distribution([(3, 1)]), 0),))
    path = write_instance(tmp_path, inst)
    monkeypatch.setenv("DELEGATEBOX_FORMAT", "json")
    code, stdout, _ = run_cli(capsys, "eval", "--instance", path, "--mechanism", "pnoi")
    assert code == 0
    json.loads(stdout)  # valid JSON because the env var selected it


def test_twin_boxes_fold_into_type_states(capsys):
    # 2^20 * 3 bitmask states, but 21 * 3 type states.
    code, stdout, _ = run_cli(
        capsys, "eval", "--family", "identical_binary", "--n", "20", "--p", "1/20",
        "--c", "1/10", "--mechanism", "pnoi", "--format", "json",
    )
    assert code == 0
    assert json.loads(stdout)["value"] == "0.05"
    code, stdout, _ = run_cli(
        capsys, "eval", "--family", "inapprox_first_best", "--n", "20",
        "--mechanism", "costly", "--format", "json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert (report["branch"], report["value"]) == ("PnoiDirect", "1")


def test_search_deeper_than_the_recursion_limit(capsys):
    # 1,000 boxes, deeper than the interpreter's recursion limit. Opening
    # costs 1/3 against a mean of 1/6, so a closed box is selected.
    code, stdout, _ = run_cli(
        capsys, "eval", "--family", "identical_binary", "--n", "1000", "--mechanism", "pnoi",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(stdout)["value"] == "1/6"


@pytest.mark.parametrize("family", instances.FAMILIES)
def test_family_registry_binds_to_builders_and_flags(family):
    builder, defaults = instances.FAMILIES[family]
    inspect.signature(builder).bind(**defaults)
    for argv in (["gen"], ["eval", "--mechanism", "pnoi"], ["audit", "--regime", "costless"]):
        args = vars(_build_parser().parse_args([*argv, "--family", family]))
        # every parameter has a flag, and an absent flag leaves the registry default
        assert {name: args.get(name, "no flag") for name in defaults} == dict.fromkeys(defaults)


@pytest.mark.parametrize("family", instances.FAMILIES)
def test_each_family_flag_at_its_default_prints_the_same_bytes(capsys, family):
    base = ["gen", "--family", family, *(["--seed", "3"] if family == "random" else [])]
    want = run_cli(capsys, *base)
    assert want[0] == 0
    for name, default in instances.FAMILIES[family][1].items():
        if default is not None:
            assert run_cli(capsys, *base, flag(name), str(default)) == want, name


@pytest.mark.parametrize("flags", [["--exact"], ["--float"], ["--format", "table"]])
def test_gen_rejects_mode_and_format_flags(capsys, flags):
    code, stdout, stderr = run_cli(capsys, "gen", "--family", "spmi_fail", *flags)
    assert (code, stdout) == (2, "")
    error = json.loads(stderr)["error"]
    assert set(error) == {"type", "message"}
    assert error["type"] == "InvalidParameters"
    assert flags[0] in error["message"]


def test_shared_parser_leaks_nothing_between_calls(capsys, monkeypatch):
    parse = argparse.ArgumentParser.parse_args
    seen = []  # (parser, argv, namespace as parsed) per main call

    def recording(self, args=None, namespace=None):
        parsed = parse(self, args, namespace)
        seen.append((self, list(args), dict(vars(parsed))))
        return parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    first = ["eval", "--family", "random", "--mechanism", "maximal", "--float", "--format", "json"]
    code, seeded, _ = run_cli(capsys, *first, "--seed", "3")
    assert code == 0
    bad = [*first[:-3], "--exact", "--float"]
    code, stdout, record = run_cli(capsys, *bad)
    assert (code, stdout) == (2, "")
    monkeypatch.setenv("DELEGATEBOX_SEED", "3")
    assert run_cli(capsys, *first) == (0, seeded, "")
    monkeypatch.delenv("DELEGATEBOX_SEED")
    assert run_cli(capsys, *first, "--seed", "3") == (0, seeded, "")

    with pytest.raises(InvalidParameters) as exc:
        parse(_build_parser(), bad)
    assert json.loads(record)["error"]["message"] == str(exc.value)
    assert len(seen) == 3
    for _, argv, parsed in seen:
        assert parsed == vars(parse(_build_parser(), argv))
    assert all(parser is seen[0][0] for parser, _, _ in seen), "main rebuilt its parser"


NUMBER_STRINGS = ("", "0", "1", "2", "1/3", "0.5", "-1", "abc", "1/0", "1e400", "1e-400")
# A value strategy for every family flag.
FLAG_VALUES = {
    "seed": st.integers(0, 5).map(str),
    "n": st.integers(-1, 6).map(str),
    **{name: st.sampled_from(NUMBER_STRINGS) for name in ("p", "v", "c", "eps")},
    "support_size": st.integers(0, 20).map(str),
    "value_max": st.integers(-1, 4).map(str),
    "cost_max": st.integers(-1, 2).map(str),
    "cdel_max": st.integers(-1, 2).map(str),
}


def flag(name):
    return "--" + name.replace("_", "-")


# Flags argparse rejects on eval, audit and gen alike, and those only gen rejects.
REJECTED_FLAGS = (["--bogus"], ["--n", "x"], ["--seed", "1/2"], ["--family", "foo"],
                  ["--format", "xml"])
GEN_REJECTED_FLAGS = (["--instance", "x.json"], ["--exact"], ["--float"], ["--format", "json"])


@st.composite
def cli_argv(draw):
    """An argv for eval, audit or gen on a generated family, and whether argparse rejects it.

    It gives the family's own flags (always the seed, the rest on a drawn
    boolean), on another drawn boolean one flag the family does not take,
    and on a third one flag that argparse rejects.
    """
    command = draw(st.sampled_from(["eval", "audit", "gen"]))
    family = draw(st.sampled_from(tuple(instances.FAMILIES)))
    argv = [command, "--family", family]
    own = instances.FAMILIES[family][1]
    for name in own:
        if name == "seed" or draw(st.booleans()):
            argv += [flag(name), draw(FLAG_VALUES[name])]
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(set(FLAG_VALUES) - set(own))))
        argv += [flag(name), draw(FLAG_VALUES[name])]
    if command == "eval":
        argv += ["--mechanism", draw(st.sampled_from(MECHANISMS))]
    elif command == "audit":
        argv += ["--regime", draw(st.sampled_from(REGIMES))]
        if draw(st.booleans()):
            argv += ["--alpha", draw(st.sampled_from(NUMBER_STRINGS))]
    if command != "gen":
        if draw(st.booleans()):
            argv.append("--float")
        argv += ["--format", draw(st.sampled_from(FORMATS))]
    rejected = draw(st.booleans())
    if rejected:
        choices = REJECTED_FLAGS + (GEN_REJECTED_FLAGS if command == "gen" else ())
        argv += draw(st.sampled_from(choices))
    return argv, rejected


@given(cli_argv())
@settings(max_examples=50, deadline=None)
def test_cli_fuzz_ends_in_an_exit_code_or_one_error_record(drawn):
    argv, rejected = drawn
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    stderr = err.getvalue()
    if stderr:
        assert code == 2
        assert stderr.endswith("\n") and stderr.count("\n") == 1
        assert set(json.loads(stderr)) == {"error"}
    if rejected:
        assert (code, out.getvalue()) == (2, "")
        assert json.loads(stderr)["error"]["type"] == "InvalidParameters"
