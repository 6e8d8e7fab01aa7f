import json
from fractions import Fraction as F

from delegatebox import Alternative, Instance, instance_to_json, make_distribution
from delegatebox.cli import main


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
    payload = json.loads(out.read_text())
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(payload["instance"]))
    code, stdout, _ = run_cli(
        capsys, "eval", "--instance", str(inst_path), "--mechanism", "pnoi",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["value"] == "2.9701"
    assert report["arithmetic_mode"] == "exact"


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


def test_audit_costly_regime_with_alpha(tmp_path, capsys):
    from delegatebox import expected_of_max
    from delegatebox.instances import random_corpus

    base = next(random_corpus(seed=6, count=1, max_n=3))
    surplus = expected_of_max(base, "shifted_positive")
    inst = Instance(base.alternatives, base.cost_model, F(1, 4) * surplus)
    path = write_instance(tmp_path, inst)
    code, stdout, _ = run_cli(
        capsys, "audit", "--instance", path, "--regime", "costly",
        "--alpha", "1/4", "--format", "json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    assert report["claimed_bound"] == "4"
    assert report["mechanism"] == "costly"


def test_missing_instance_file_yields_error_record(capsys):
    code, _, stderr = run_cli(
        capsys, "eval", "--instance", "/nonexistent.json", "--mechanism", "pnoi"
    )
    assert code == 2
    assert json.loads(stderr)["error"]["type"] == "IOError"


def assert_one_error_record(stderr, error_type):
    assert stderr.endswith("\n") and stderr.count("\n") == 1
    assert json.loads(stderr)["error"]["type"] == error_type


def test_non_json_instance_file_yields_error_record(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text("alternatives: not json")
    code, _, stderr = run_cli(
        capsys, "eval", "--instance", str(path), "--mechanism", "pnoi"
    )
    assert code == 2
    assert_one_error_record(stderr, "InvalidParameters")


def test_support_row_without_probability_yields_error_record(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"alternatives": [{"support": [[1]], "cost": "0"}]}))
    code, _, stderr = run_cli(
        capsys, "eval", "--instance", str(path), "--mechanism", "pnoi"
    )
    assert code == 2
    assert_one_error_record(stderr, "InvalidParameters")


def test_monte_carlo_needs_a_seed(tmp_path, capsys):
    inst = Instance((Alternative(make_distribution([(0, "0.5"), (1, "0.5")]), 0),))
    path = write_instance(tmp_path, inst)
    code, _, stderr = run_cli(
        capsys, "eval", "--instance", path, "--mechanism", "spmi", "--trials", "100"
    )
    assert code == 2
    assert json.loads(stderr)["error"]["type"] == "InvalidParameters"


def test_monte_carlo_reports_a_band(tmp_path, capsys):
    inst = Instance(
        (Alternative(make_distribution([(0, "0.5"), (1, "0.5")]), "0.25"),)
    )
    path = write_instance(tmp_path, inst)
    code, stdout, _ = run_cli(
        capsys, "eval", "--instance", path, "--mechanism", "weitzman",
        "--trials", "400", "--seed", "5", "--format", "json",
    )
    assert code == 0
    report = json.loads(stdout)
    lo, hi = report["three_se_band"]
    assert lo <= report["value_estimate"] <= hi
    assert lo <= 0.25 <= hi


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


def test_env_format_override(tmp_path, capsys, monkeypatch):
    inst = Instance((Alternative(make_distribution([(3, 1)]), 0),))
    path = write_instance(tmp_path, inst)
    monkeypatch.setenv("DELEGATEBOX_FORMAT", "json")
    code, stdout, _ = run_cli(capsys, "eval", "--instance", path, "--mechanism", "pnoi")
    assert code == 0
    json.loads(stdout)  # valid JSON because the env var selected it
