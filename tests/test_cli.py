"""The `crysred` command, run as a subprocess."""

import json
import os
import subprocess
import sys

from crysred.pipeline import EXIT_CONFIG, EXIT_GATE, EXIT_OK, JobConfig, run_pipeline

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

F1_JOB = {"p": 5, "f": 1, "r": 1, "weights": [[4, 0]],
          "params": [{"type": "I", "a1": 1, "a2": {"coeffs": [1], "pexp": 2}}]}

# v(a2) = 1 does not clear the gate bound 1 at p = 5, k = 4
GATE_STOP_TOML = """\
p = 5
f = 1
weights = [[4, 0]]

[[params]]
type = "I"
a1 = 1
a2 = { coeffs = [1], pexp = 1 }
"""


def run_cli(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "crysred.cli", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_json_job_prints_the_report(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(F1_JOB))
    out = run_cli(path)
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout == run_pipeline(JobConfig.from_dict(F1_JOB)).to_json() + "\n"


def test_toml_gate_stop_exits_3(tmp_path):
    path = tmp_path / "job.toml"
    path.write_text(GATE_STOP_TOML)
    out = run_cli(path)
    assert out.returncode == EXIT_GATE == 3
    report = json.loads(out.stdout)
    assert (report["error"]["stage"], report["error"]["type"]) == ("gate", "GateFailed")


def test_unreadable_job_is_a_config_error(tmp_path):
    path = tmp_path / "job.json"
    path.write_text("{not json")
    out = run_cli(path)
    assert out.returncode == EXIT_CONFIG
    assert out.stdout == "" and "job.json" in out.stderr


def test_bool_and_empty_precision_jobs_exit_5(tmp_path):
    path = tmp_path / "job.json"
    for job in (dict(F1_JOB, precision=[]), dict(F1_JOB, f=True)):
        path.write_text(json.dumps(job))
        out = run_cli(path)
        assert out.returncode == EXIT_CONFIG == 5
        assert out.stdout == "" and "job.json" in out.stderr
    a2_true = dict(F1_JOB, params=[{"type": "I", "a1": 1, "a2": True}])
    path.write_text(json.dumps(a2_true))
    out = run_cli(path)
    assert out.returncode == EXIT_CONFIG
    report = json.loads(out.stdout)
    assert report["error"]["type"] == "ConfigError"


def test_unknown_keys_exit_5(tmp_path):
    path = tmp_path / "job.json"
    slot = F1_JOB["params"][0]
    for entry in (dict(slot, typo=0), dict(slot, matrix=[[0, 1], [1, 25]])):
        path.write_text(json.dumps(dict(F1_JOB, params=[entry])))
        out = run_cli(path)
        assert out.returncode == EXIT_CONFIG == 5
        assert out.stdout == "" and "params[0]: unknown config keys" in out.stderr
    pexpp = dict(slot, a2={"coeffs": [1], "pexp": 2, "pexpp": 5})
    path.write_text(json.dumps(dict(F1_JOB, params=[pexpp])))
    out = run_cli(path)
    assert out.returncode == EXIT_CONFIG
    error = json.loads(out.stdout)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == "coordinate: unknown config keys: ['pexpp']"
