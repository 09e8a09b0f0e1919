"""Command-line interface: reports, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from irrlangevin import benchmark as bench
from irrlangevin import cli
from irrlangevin.cli import run_command
from irrlangevin.model import POTENTIAL_CATALOG
from irrlangevin.spectral_oracle import discretize_gaussian_linear

pytestmark = pytest.mark.usefixtures("tmp_home")


@pytest.fixture
def tmp_home(tmp_path, monkeypatch):
    monkeypatch.setenv("IRRLANGEVIN_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def read_json(path):
    return json.loads(path.read_text())


def test_spectral_report_gaussian_benchmark(tmp_path):
    out = tmp_path / "spec.json"
    code = run_command([
        "spectral-report", "--potential", "gaussian", "--dim", "2",
        "--drift", "qgradu", "--q", "0,1,-1,0", "--observable", "x1",
        "--backend", "hermite", "--degree", "4", "--output", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["sigma2_rev"] == pytest.approx(2.0, abs=1e-12)
    assert payload["sigma2_irr"] == pytest.approx(1.0, abs=1e-12)
    assert payload["kernel_flag"] is False
    assert payload["backend"] == "hermite"
    assert payload["n"] == 15
    assert payload["gap_L"] == pytest.approx(1.0, abs=1e-12)
    assert payload["config"]["command"] == "spectral-report"
    assert payload["config"]["drift_spec"]["q"] == "0,1,-1,0"


def test_spectral_report_dump_measure(tmp_path):
    out = tmp_path / "spec.json"
    meas = tmp_path / "measure.csv"
    code = run_command([
        "spectral-report", "--drift", "qgradu", "--q", "0,1,-1,0",
        "--backend", "hermite", "--degree", "2", "--output", str(out),
        "--dump-measure", str(meas),
    ])
    assert code == 0
    lines = meas.read_text().splitlines()
    assert lines[0] == "location,weight"
    data = np.loadtxt(meas, delimiter=",", skiprows=1)
    # f = x1 on the rotation benchmark: half the mass at -1 and at 1; the
    # kernel eigenvalue of the degree-2 shell appears with zero weight
    np.testing.assert_allclose(data[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(data[:, 1], [0.5, 0.0, 0.5], atol=1e-12)


def test_spectral_report_torus_backend(tmp_path):
    out = tmp_path / "torus.json"
    code = run_command([
        "spectral-report", "--potential", "torus_cosine", "--dim", "2",
        "--amplitude", "1.0", "--drift", "qgradu", "--q", "0,1,-1,0",
        "--observable", "cos1", "--backend", "torus",
        "--points-per-axis", "16", "--output", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["backend"] == "torus"
    assert payload["n"] == 256
    assert 0.0 < payload["sigma2_irr"] < payload["sigma2_rev"]
    assert payload["route_discrepancy"] <= 1e-8
    assert payload["min_real_spectrum_LC"] >= payload["gap_L"] - 1e-10
    assert payload["antisym_correction"] > 0.0


def test_sweep_k_closed_form(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_command([
        "sweep-k", "--potential", "gaussian", "--dim", "2",
        "--drift", "qgradu", "--q", "0,1,-1,0", "--observable", "x1",
        "--backend", "hermite", "--degree", "4",
        "--k-values", "0,1,2,4", "--output", str(out),
    ])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], [0.0, 1.0, 2.0, 4.0])
    np.testing.assert_allclose(data[:, 1], [2.0, 1.0, 0.4, 2.0 / 17.0],
                               atol=1e-12)
    np.testing.assert_allclose(data[:, 2], 0.0, atol=1e-12)


def test_estimate_variance_deterministic_reports(tmp_path):
    out1 = tmp_path / "a.json"
    args = [
        "estimate-variance", "--potential", "gaussian", "--dim", "2",
        "--drift", "none", "--observable", "x1", "--method", "replicated-clt",
        "--n-chains", "8", "--dt", "0.02", "--n-steps", "2000",
        "--burn-in", "200", "--seed", "99", "--output", str(out1),
    ]
    assert run_command(args) == 0
    first = out1.read_bytes()
    assert run_command(args) == 0  # identical invocation overwrites in place
    assert out1.read_bytes() == first  # byte-identical
    payload = read_json(out1)
    assert payload["method"] == "replicated_clt"
    assert payload["n_chains"] == 8
    assert payload["seed"] == 99
    assert payload["rng"] == "philox4x64"
    for key in ("potential", "drift", "k", "f", "estimate", "stderr", "T",
                "dt"):
        assert key in payload


def test_estimate_variance_batch_means(tmp_path):
    out = tmp_path / "bm.json"
    code = run_command([
        "estimate-variance", "--drift", "none", "--method", "batch-means",
        "--dt", "0.01", "--n-steps", "120000", "--burn-in", "1000",
        "--seed", "5", "--output", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["method"] == "batch_means"
    assert payload["estimate"] > 0.0
    assert payload["n_chains"] == 1


def test_sample_writes_summary_and_trajectory(tmp_path):
    out = tmp_path / "sample.json"
    csv = tmp_path / "traj.csv"
    code = run_command([
        "sample", "--potential", "torus_cosine", "--dim", "2",
        "--drift", "qgradu", "--q", "0,1,-1,0", "--observable", "cos1",
        "--dt", "0.05", "--n-steps", "500", "--burn-in", "50", "--seed", "3",
        "--output", str(out), "--dump-trajectory", str(csv),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["n_recorded"] == 451
    assert abs(payload["time_average"]) < 1.0
    header = csv.read_text().splitlines()[0]
    assert header == "t,x1,x2,running_mean"


def test_check_assumptions_report(tmp_path):
    out = tmp_path / "assume.json"
    code = run_command([
        "check-assumptions", "--potential", "gaussian", "--dim", "2",
        "--drift", "qgradu", "--q", "0,1,-1,0", "--n-probes", "64",
        "--seed", "11", "--output", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["a3_residual"] <= 1e-10
    assert payload["a5_ratio"] <= 1.0 + 1e-12
    assert payload["a6_trend"] is True
    assert payload["verification"] == "probe-verified"
    assert set(payload["a4_margin"]) == {"0.01", "0.1", "1"}


def test_worst_case_report(tmp_path):
    out = tmp_path / "wc.json"
    code = run_command([
        "worst-case", "--potential", "gaussian", "--dim", "2",
        "--drift", "qgradu", "--q", "0,1,-1,0", "--backend", "hermite",
        "--degree", "5", "--output", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["sup_rev"] == pytest.approx(2.0, abs=1e-9)
    assert payload["sup_irr"] == pytest.approx(1.0, abs=1e-9)
    assert payload["strict"] is True
    assert payload["kernel_intersection_dim"] == 0
    # the rotation turns x1 into x2 and back: |A v| / lambda = 1 on both
    assert payload["eigenspace_residuals"] == pytest.approx([1.0, 1.0],
                                                            abs=1e-12)
    assert "a_kernel_dim" not in payload
    assert "principal_angles" not in payload


def test_unknown_subcommand_exits_2(capsys):
    assert run_command(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_2(capsys):
    assert run_command(["sample", "--walrus", "9"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_non_antisymmetric_q_rejected(tmp_path, capsys):
    code = run_command([
        "spectral-report", "--drift", "qgradu", "--q", "0,1,-0.999,0",
        "--backend", "hermite", "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "antisymmetric" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_wrong_q_length_rejected(capsys):
    code = run_command([
        "spectral-report", "--drift", "qgradu", "--q", "0,1,-1",
        "--backend", "hermite",
    ])
    assert code == 2
    assert "row-major" in capsys.readouterr().err


def test_divergence_exits_3(tmp_path, capsys):
    code = run_command([
        "sample", "--potential", "gaussian", "--dim", "2", "--cov", "0.0001",
        "--drift", "none", "--dt", "0.1", "--n-steps", "200", "--burn-in", "0",
        "--initial", "1,1", "--output", str(tmp_path / "d.json"),
    ])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


# (argv, the flag the error names) of what the estimators cannot use
ESTIMATOR_REFUSALS = [
    (["estimate-variance", "--n-steps", "2000", "--burn-in", "0", "--thin",
      "2"], "--thin"),
    (["estimate-variance", "--method", "overlapping-batch-means", "--n-steps",
      "2000", "--burn-in", "0", "--batch-length", "-1"], "--batch-length"),
    # a horizon of 20 holds 4 batches of length 5, not 20
    (["estimate-variance", "--n-steps", "2000", "--burn-in", "0",
      "--batch-length", "5"], "--batch-length"),
    # the replicas store no path, so there is nothing to thin
    (["estimate-variance", "--method", "replicated-clt", "--n-chains", "4",
      "--n-steps", "2000", "--burn-in", "0", "--thin", "7"], "--thin"),
]


@pytest.mark.parametrize("argv, named", [
    (["sweep-k", "--drift", "qgradu", "--q", "0,1,-1,0", "--backend",
      "hermite", "--degree", "2", "--k-values", "0,nan"], "k_values"),
    (["sample", "--dt", "nan", "--n-steps", "10", "--burn-in", "0"],
     "step_size"),
    (["check-assumptions", "--potential", "gaussian", "--dim", "2", "--cov",
      "nan"], "cov"),
    (["sample", "--initial", "nan,0", "--n-steps", "10", "--burn-in", "0"],
     "initial_point"),
    (["spectral-report", "--drift", "qgradu", "--q", "0,1,-1,0", "--k", "nan"],
     "--k"),
    (["spectral-report", "--potential", "torus_cosine", "--amplitude", "nan"],
     "amplitude"),
    (["estimate-variance", "--n-steps", "2000", "--burn-in", "0",
      "--batch-length", "nan"], "--batch-length"),
    (["check-assumptions", "--drift", "none", "--k", "nan"], "--k"),
    (["worst-case", "--drift", "none", "--k", "inf"], "--k"),
    # --drift none has no Q to use, antisymmetric or not
    (["sample", "--drift", "none", "--q", "0,1,-1,0", "--k", "3"], "--q"),
    (["sample", "--drift", "none", "--q", "0,1,1,0", "--k", "3"], "--q"),
    # targets that are not probability measures, and one chain
    (["check-assumptions", "--potential", "double_well_2d", "--barrier",
      "nan"], "barrier"),
    (["sample", "--potential", "double_well_2d", "--barrier", "inf",
      "--n-steps", "10", "--burn-in", "0"], "barrier"),
    (["check-assumptions", "--cov", "-1"], "cov"),
    (["estimate-variance", "--cov", "-1", "--method", "replicated-clt",
      "--n-chains", "4", "--n-steps", "2000", "--burn-in", "0"], "cov"),
    (["check-assumptions", "--cov", "1,2,2,1"], "cov"),
    (["sample", "--cov", "1,0.5,0,1", "--n-steps", "10", "--burn-in", "0"],
     "cov"),
    (["estimate-variance", "--method", "replicated-clt", "--n-chains", "1",
      "--n-steps", "200", "--burn-in", "0"], "n_chains"),
    # a dimension that is not positive, refused before numpy sees it
    (["check-assumptions", "--dim", "-1", "--drift", "none"],
     "dim must be a positive integer"),
    (["check-assumptions", "--potential", "torus_cosine", "--dim", "-1",
      "--drift", "none"], "dim must be a positive integer"),
    # a seed Philox cannot key, refused by name
    (["estimate-variance", "--n-steps", "2000", "--burn-in", "0", "--seed",
      "-1"], "seed must be non-negative"),
    # an empty or negative probe count, and a seed numpy cannot take,
    # refused by flag before any probe is drawn
    (["check-assumptions", "--n-probes", "0"], "--n-probes"),
    (["check-assumptions", "--n-probes", "-1"], "--n-probes"),
    (["check-assumptions", "--seed", "-1"], "--seed"),
    *ESTIMATOR_REFUSALS,
])
def test_non_finite_input_exits_2(argv, named, tmp_path, capsys):
    # not a silent NaN row, not a divergence at step 0, not an input that
    # the run ignores, and not a report on a target that is no measure
    out = tmp_path / "out"
    assert run_command([*argv, "--output", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", ESTIMATOR_REFUSALS)
def test_estimate_variance_refuses_before_any_chain_runs(argv, named, tmp_path,
                                                         monkeypatch):
    # the estimators' own rule decides from the flags, so no chain is run
    # only to be refused
    import irrlangevin.cli as cli

    def spy(*args, **kwargs):
        raise AssertionError("a chain ran")

    for runner in ("simulate", "replicated_clt"):
        monkeypatch.setattr(cli, runner, spy)
    assert run_command([*argv, "--output", str(tmp_path / "out")]) == 2


def test_hermite_backend_requires_standard_gaussian(capsys):
    code = run_command([
        "spectral-report", "--potential", "gaussian", "--dim", "2",
        "--cov", "2.0", "--drift", "none", "--backend", "hermite",
    ])
    assert code == 2
    assert "standard gaussian" in capsys.readouterr().err


def test_memory_guard_exits_2(capsys):
    # C(18, 8) = 43758 Hermite states: rejected before anything is built
    code = run_command([
        "spectral-report", "--dim", "8", "--drift", "none",
        "--backend", "hermite", "--degree", "10",
    ])
    assert code == 2
    assert "memory guard" in capsys.readouterr().err


TORUS_3D = ["--potential", "torus_cosine", "--dim", "3", "--drift", "qgradu",
            "--q", "0,1,0,-1,0,1,0,-1,0"]


@pytest.mark.parametrize("argv", [
    ["spectral-report", "--observable", "cos1"],
    ["sweep-k", "--observable", "cos1"],
    ["worst-case"],
], ids=lambda argv: argv[0])
def test_3d_torus_commands_rerun_byte_identically(argv, tmp_path):
    outputs = [tmp_path / "first", tmp_path / "second"]
    for out in outputs:
        assert run_command([*argv, *TORUS_3D, "--points-per-axis", "8",
                            "--output", str(out)]) == 0
    first, second = (out.read_text() for out in outputs)
    assert first.replace(str(outputs[0]), str(outputs[1])) == second
    if argv[0] == "worst-case":
        assert read_json(outputs[0])["strict"] is True
    if argv[0] == "spectral-report":
        payload = read_json(outputs[0])
        assert payload["n"] == 512
        assert payload["sigma2_irr"] < payload["sigma2_rev"]


def test_3d_torus_memory_guard_exits_2(tmp_path, capsys):
    # 20^3 = 8000 nodes: refused before the grid is built
    out = tmp_path / "out"
    assert run_command(["spectral-report", *TORUS_3D, "--observable", "cos1",
                        "--points-per-axis", "20", "--output", str(out)]) == 2
    assert "memory guard" in capsys.readouterr().err
    assert not out.exists()


def test_fourier_observable_rejected_on_hermite(capsys):
    code = run_command([
        "spectral-report", "--drift", "none", "--backend", "hermite",
        "--observable", "cos1",
    ])
    assert code == 2
    assert "polynomial" in capsys.readouterr().err


def test_output_dir_env_used(tmp_home):
    code = run_command([
        "spectral-report", "--drift", "none", "--backend", "hermite",
        "--degree", "2",
    ])
    assert code == 0
    assert (tmp_home / "spectral.json").exists()


def test_benchmark_subset_passes(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_command(["reproduce-benchmark", "--only", "C2",
                        "--output", str(out)])
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0] == "criterion,case,expected,observed,tolerance,passed"
    assert all(line.endswith("True") for line in text[1:])
    assert "pass" in capsys.readouterr().out


def test_benchmark_corrupted_tolerance_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(bench.TOLERANCES, "C2_value", -1.0)
    out = tmp_path / "bench.csv"
    code = run_command([
        "reproduce-benchmark", "--only", "C2", "--output", str(out),
    ])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    assert any(line.endswith("False") for line in out.read_text().splitlines())


def test_benchmark_rejects_unknown_names(capsys):
    assert run_command(["reproduce-benchmark", "--only", "C99"]) == 2


def test_benchmark_refuses_to_check_nothing():
    # a gate that ran no criterion used to pass: "0/0 checks passed"
    with pytest.raises(ValueError, match="no criteria"):
        bench.run_benchmark(only=[])


@pytest.mark.parametrize("only", [",", " , ", ""])
def test_benchmark_with_no_criterion_names_exits_2(only, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_command(["reproduce-benchmark", "--only", only,
                        "--output", str(out)])
    assert code == 2
    assert "no criteria" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_refuses_a_criterion_named_twice(tmp_path, capsys):
    # "--only C2,C2" ran C2 twice and counted its 8 checks as 16
    with pytest.raises(ValueError, match=r"more than once: \['C2'\]"):
        bench.run_benchmark(only=["C2", "C4", "C2"])
    out = tmp_path / "bench.csv"
    code = run_command(["reproduce-benchmark", "--only", "C2,C2",
                        "--output", str(out)])
    assert code == 2
    assert "more than once: ['C2']" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_tolerances_not_settable_from_command_line(capsys):
    assert run_command(["reproduce-benchmark", "--only", "C2",
                        "--override-tolerance", "C2_value=1"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_k_takes_its_scales_from_k_values_only(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run_command(["sweep-k", "--drift", "qgradu", "--q", "0,1,-1,0",
                        "--backend", "hermite", "--degree", "2", "--k", "5",
                        "--output", str(out)]) == 2
    assert "unrecognized arguments: --k 5" in capsys.readouterr().err
    assert not out.exists()


def test_negative_scale_is_the_reversed_rotation(tmp_path):
    # k lives in the drift: -1 times Q is the drift of -Q at k = 1
    reports = []
    for q, k in (("0,1,-1,0", "-1"), ("0,-1,1,0", "1")):
        out = tmp_path / f"k{k}.json"
        assert run_command(["sample", "--drift", "qgradu", "--q", q, "--k", k,
                            "--dt", "0.05", "--n-steps", "2000", "--burn-in",
                            "100", "--seed", "17", "--output", str(out)]) == 0
        reports.append(read_json(out))
    scaled, reversed_ = reports
    assert scaled["time_average"] == reversed_["time_average"]
    assert scaled["final_state"] == reversed_["final_state"]


ROTATION = ["--drift", "qgradu", "--q", "0,1,-1,0"]
TORUS = ["--potential", "torus_cosine", "--dim", "2"]

# (command line without --output, extra files it writes) for each
# deterministic command; the extra files are named relative to tmp_path
DETERMINISTIC = {
    "spectral-report": (["spectral-report", *ROTATION, "--backend", "hermite",
                         "--degree", "3", "--dump-measure", "{tmp}/measure.csv"],
                        ["measure.csv"]),
    "sweep-k": (["sweep-k", *TORUS, *ROTATION, "--observable", "cos1",
                 "--points-per-axis", "8", "--k-values", "0,1,3"], []),
    "worst-case": (["worst-case", *TORUS, *ROTATION, "--points-per-axis", "8"],
                   []),
    "check-assumptions": (["check-assumptions", "--potential", "double_well_2d",
                           *ROTATION, "--n-probes", "16", "--seed", "4"], []),
    "sample": (["sample", *TORUS, *ROTATION, "--observable", "cos1",
                "--dt", "0.05", "--n-steps", "300", "--burn-in", "30",
                "--thin", "2", "--seed", "8",
                "--dump-trajectory", "{tmp}/traj.csv"], ["traj.csv"]),
    "reproduce-benchmark": (["reproduce-benchmark", "--only", "C2"], []),
}


@pytest.mark.parametrize("command", sorted(DETERMINISTIC))
def test_deterministic_commands_rerun_byte_identically(command, tmp_path,
                                                       capsys):
    argv, extra = DETERMINISTIC[command]
    argv = [a.format(tmp=tmp_path) for a in argv]
    argv += ["--output", str(tmp_path / "report")]
    files = ["report", *extra]

    def run():
        assert run_command(argv) == 0
        return ([(tmp_path / name).read_bytes() for name in files],
                capsys.readouterr())

    first = run()
    assert run() == first


def test_sweep_k_builds_one_system(monkeypatch, tmp_path):
    builds = []

    def counting(*args):
        builds.append(args)
        return discretize_gaussian_linear(*args)

    monkeypatch.setattr(cli, "discretize_gaussian_linear", counting)
    assert run_command(["sweep-k", *ROTATION, "--backend", "hermite",
                        "--degree", "3", "--output",
                        str(tmp_path / "s.csv")]) == 0
    assert len(builds) == 1


def _config(command, *, potential=None, drift=None, observable="",
            backend=None, sim=None, output):
    return {"command": command,
            "potential_spec": potential or {"name": "gaussian", "dim": 2,
                                            "cov": None},
            "drift_spec": drift or {"kind": "qgradu", "q": "0,1,-1,0",
                                    "k": 1.0},
            "observable_spec": observable, "backend_spec": backend or {},
            "sim_spec": sim or {}, "output_path": output}


def test_each_report_embeds_its_resolved_config(tmp_path):
    out = str(tmp_path / "r.json")
    sim = {"dt": 0.05, "n_steps": 200, "burn_in": 20, "seed": 6,
           "initial": "0.5,0.5", "thin": 1}
    sim_args = ["--dt", "0.05", "--n-steps", "200", "--burn-in", "20",
                "--seed", "6", "--initial", "0.5,0.5"]
    cases = [
        (["check-assumptions", "--potential", "double_well_2d",
          "--barrier", "2", "--drift", "none", "--n-probes", "8"],
         _config("check-assumptions",
                 potential={"name": "double_well_2d", "barrier": 2.0},
                 drift={"kind": "none", "k": 1.0}, output=out)),
        (["sample", *TORUS, "--amplitude", "1,0.5", *ROTATION,
          "--observable", "cos1", *sim_args],
         _config("sample", potential={"name": "torus_cosine", "dim": 2,
                                      "amplitude": "1,0.5"},
                 observable="cos1", sim=sim, output=out)),
        (["estimate-variance", "--cov", "1,2", *ROTATION, "--k", "0.5",
          *sim_args, "--method", "replicated-clt", "--n-chains", "4"],
         _config("estimate-variance",
                 potential={"name": "gaussian", "dim": 2, "cov": "1,2"},
                 drift={"kind": "qgradu", "q": "0,1,-1,0", "k": 0.5},
                 observable="x1", sim=sim, output=out)),
        (["spectral-report", *ROTATION, "--backend", "hermite", "--degree",
          "2", "--observable", "x2"],
         _config("spectral-report", observable="x2",
                 backend={"backend": "hermite", "points_per_axis": 32,
                          "degree": 2}, output=out)),
        (["worst-case", *TORUS, "--drift", "none", "--points-per-axis", "8"],
         _config("worst-case", potential={"name": "torus_cosine", "dim": 2,
                                          "amplitude": "1.0"},
                 drift={"kind": "none", "k": 1.0},
                 backend={"backend": None, "points_per_axis": 8,
                          "degree": 6}, output=out)),
    ]
    for argv, expected in cases:
        assert run_command([*argv, "--output", out]) == 0, argv[0]
        assert read_json(tmp_path / "r.json")["config"] == expected, argv[0]


@pytest.mark.parametrize("name", sorted(POTENTIAL_CATALOG))
def test_every_catalog_potential_is_a_cli_choice(name, tmp_path):
    out = tmp_path / "a.json"
    assert run_command(["check-assumptions", "--potential", name,
                        "--drift", "none", "--n-probes", "4",
                        "--output", str(out)]) == 0
    assert read_json(out)["config"]["potential_spec"]["name"] == name
