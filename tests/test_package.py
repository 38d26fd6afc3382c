"""The package surface: public names, the README example and flags, and
the call sites the benchmark's tracer wraps."""

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import rppi
from rppi import dataio
from rppi.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PUBLIC = {
    "RPPIError",
    "RPPIParams", "ParamVector", "CountDataset", "pack", "unpack", "proportions",
    "PreparedData", "RobustConfig", "RobustFitResult", "fit_robust",
    "sample_rppi", "sample_counts",
    "tune_c", "bootstrap_se", "influence",
    "StudyScenario", "preset_scenario", "run_study",
}

# The parameters of every exported function and the fields of a fit's
# result: one that is added or comes back has to be added here too.
SIGNATURES = {
    "pack": ["params"],
    "unpack": ["pi", "kstar", "beta_p"],
    "proportions": ["data"],
    "fit_robust": ["data", "config", "init", "ridge"],
    "sample_rppi": ["params", "n", "seed"],
    "sample_counts": ["params", "m", "seed"],
    "tune_c": ["data", "grid", "kstar", "sim_size", "seed", "beta_p", "tol", "max_iter",
               "quantile", "alpha"],
    "bootstrap_se": ["fit", "data", "b", "seed", "threads"],
    "influence": ["z", "pi0", "reference", "c", "kstar", "beta_p"],
    "preset_scenario": ["name", "a_matrix", "replicates", "seed", "cs", "tol", "max_iter"],
    "run_study": ["scenario", "threads"],
}
# The names rppi.dataio defines (not imports); aim 2 counts them.
DATAIO_PUBLIC = {
    "SCHEMA_VERSION", "WRITE_ROWS", "TableData",
    "read_table", "write_table", "read_json", "write_json", "write_csv_rows",
    "report_to_dict", "params_to_dict", "params_from_dict", "config_from_dict",
    "fit_to_dict", "fit_from_dict", "scenario_from_dict",
    "fit_csv_rows", "tune_csv_rows", "bootstrap_csv_rows", "rmse_csv_rows",
}
RESULT_FIELDS = [
    "pi_hat", "config", "iterations", "final_weights", "weight_cv", "residual",
    "condition_number", "d_hat", "n_obs", "beta_p", "ridge", "restarts",
    "accelerated_steps",
]


def test_public_names_are_exactly_the_library_interface():
    exported = {name for name, value in vars(rppi).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC


def test_public_signatures_are_pinned():
    functions = {name: list(inspect.signature(getattr(rppi, name)).parameters)
                 for name in PUBLIC if inspect.isfunction(getattr(rppi, name))}
    assert functions == SIGNATURES
    assert sum(map(len, SIGNATURES.values())) == 45
    assert [f.name for f in dataclasses.fields(rppi.RobustFitResult)] == RESULT_FIELDS


def test_dataio_names_are_pinned():
    # a constant has no __module__; an imported name carries its own
    defined = {name for name, value in vars(dataio).items()
               if not name.startswith("_") and not inspect.ismodule(value)
               and getattr(value, "__module__", None) in (dataio.__name__, None)}
    assert defined == DATAIO_PUBLIC
    assert len(DATAIO_PUBLIC) == 19


def test_readme_library_example_runs(capsys):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "['a_11', 'a_22', 'a_12', 'beta_1', 'beta_2']"


def test_readme_flags_are_cli_options():
    # every subcommand's options; flags on a `pip install` line are pip's
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {flag for sub in commands.choices.values()
               for action in sub._actions for flag in action.option_strings}
    lines = (ROOT / "README.md").read_text().splitlines()
    named = {flag for line in lines if "pip install" not in line
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)}
    assert {"--out", "--m-file", "--kstar"} <= named
    assert sorted(named - options) == []


def _tracing_module():
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_traced_study_sees_every_fit_and_writes_the_same_bytes(tmp_path):
    # The spans must still be on the path the fits take: 2 replicates of
    # the 7-c panel are 14 fits over 2 datasets of 94 rows, each dataset's
    # rows evaluated once.
    env = dict(os.environ, PYTHONPATH=str(Path(rppi.__file__).resolve().parent.parent))
    args = ["study", "sim7", "--replicates", "2", "--threads", "1", "--seed", "5"]
    stats = tmp_path / "stats.json"
    for cmd, out in (([str(ROOT / "bench" / "traced_cli.py"), str(stats)], "traced"),
                     (["-m", "rppi.cli"], "plain")):
        subprocess.run([sys.executable, *cmd, *args, "--out", str(tmp_path / out)],
                       env=env, check=True, capture_output=True)
    traced = json.loads(stats.read_text())
    assert traced["calls"]["robust.fit"] == 14
    assert traced["counts"]["suffstats.rows"] == 188
    for suffix in (".json", ".csv"):
        assert ((tmp_path / f"traced{suffix}").read_bytes()
                == (tmp_path / f"plain{suffix}").read_bytes())


def test_every_traced_call_site_resolves():
    # The benchmark wraps these attributes in place; a missing one makes
    # the traced run fail.  Reading the table installs nothing.
    tracing = _tracing_module()
    sites = [(module, attr) for group in tracing.SPANS.values()
             for module, attr, _ in group]
    sites += list(tracing._PARALLEL_SITES)
    missing = [f"{module}.{attr}" for module, attr in sites
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing
