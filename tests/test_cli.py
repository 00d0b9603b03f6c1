"""CLI surface: subcommands, config plumbing, exit codes, determinism."""

import json
import logging
import math
import re
from dataclasses import fields

import numpy as np
import pytest

import oracles
from pendavg import averaging, cli, continuation, expr, model
from pendavg.cli import DEGENERATE_MESSAGE, main
from pendavg.config import PRESETS, ConfigError, ExperimentConfig, merge_config, read_config_file
from pendavg.constants import OMEGA1, OMEGA2, T1, T2
from pendavg.expr import ExprDomainError
from pendavg.model import Mode, unperturbed_orbit


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# freqs
# ---------------------------------------------------------------------------

def test_freqs_full_precision(capsys):
    code, out, _ = run_cli(capsys, "freqs")
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["omega1"]) == OMEGA1
    assert float(values["omega2"]) == OMEGA2
    assert float(values["T1"]) == T1
    assert float(values["T2"]) == T2


# ---------------------------------------------------------------------------
# average
# ---------------------------------------------------------------------------

def _csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def test_average_point_matches_scaled_closed_form(capsys):
    code, out, _ = run_cli(capsys, "average", "--preset", "corollary1", "--point", "0,0")
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["a1", "a2", "g1", "g2"]
    raw = oracles.corollary1_raw(0.0, 0.0)
    # CSV carries the period-mean convention: -/+ omega1/(4 pi) times raw
    assert rows[0][2] == pytest.approx(-OMEGA1 / (4 * math.pi) * raw[0], abs=1e-12)
    assert rows[0][2] == pytest.approx(-0.25, abs=1e-12)
    assert rows[0][3] == pytest.approx(0.0, abs=1e-12)


def test_average_zero_forcing_grid_is_all_zero(capsys):
    code, out, _ = run_cli(
        capsys, "average", "--f1", "0", "--f2", "0", "--mode", "mode1", "--grid=-1:1:3"
    )
    assert code == 0
    _, rows = _csv_rows(out)
    assert len(rows) == 9
    for row in rows:
        assert row[2] == 0.0 and row[3] == 0.0


def test_average_corollary2_vanishes_at_its_zero(capsys):
    point = f"0,{oracles.CORO2_W0!r}"
    code, out, _ = run_cli(capsys, "average", "--preset", "corollary2", "--point", point)
    assert code == 0
    _, rows = _csv_rows(out)
    assert abs(rows[0][2]) <= 1e-11
    assert abs(rows[0][3]) <= 1e-11


def test_average_requires_points_or_grid(capsys):
    code, _, err = run_cli(capsys, "average", "--preset", "corollary1")
    assert code == 2
    assert "point" in err


def test_average_refuses_points_and_grid_together(capsys):
    # One of the two would be ignored, so giving both is a usage error.
    with pytest.raises(SystemExit) as exit_:
        main(["average", "--preset", "corollary1", "--point", "0,0", "--grid", "0:1:2"])
    out = capsys.readouterr()
    assert exit_.value.code == 2 and out.out == ""
    assert "not allowed with argument" in out.err


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

def test_zeros_corollary1_report(capsys, tmp_path):
    out_dir = tmp_path / "report"
    code, out, _ = run_cli(capsys, "zeros", "--preset", "corollary1", "--out", str(out_dir))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["zeros"]) == 4
    assert payload["orbit_classes"] == 2
    assert sorted(len(group) for group in payload["classes"]) == [2, 2]
    for record, target in zip(payload["zeros"], oracles.CORO1_ZEROS):
        assert record["simple"] is True
        assert record["residual"] <= 1e-11
        assert abs(record["det"]) > 1e-8
        assert np.abs(np.array(record["alpha"]) - np.array(target)).max() <= 1e-8
    assert (out_dir / "zeros.json").read_text() == out


def test_zeros_corollary2_report(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--preset", "corollary2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["zeros"]) == 1
    assert payload["orbit_classes"] == 1
    alpha = payload["zeros"][0]["alpha"]
    assert abs(alpha[0]) <= 1e-7
    assert alpha[1] == pytest.approx(oracles.CORO2_W0, abs=1e-7)


def _count_probes(monkeypatch):
    """Count ``is_identically_zero`` calls through the averaging and CLI names."""
    calls = []
    probe = averaging.is_identically_zero

    def counted(*args, **kwargs):
        calls.append(args)
        return probe(*args, **kwargs)

    for owner in (averaging, cli):
        monkeypatch.setattr(owner, "is_identically_zero", counted)
    return calls


def test_zeros_empty_for_constant_nonzero_mean(capsys, tmp_path, monkeypatch):
    # sin(w1 tau) forcing gives a constant nonzero mean pair: no zeros in
    # the annulus, exit code still 0, and no degeneracy message.  The
    # search's own probe decides that: one probe per run.
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps({"f2": "sin(w1 * tau)", "grid_radial": 6, "grid_angular": 6, "r1": 0.1, "r2": 5.0})
    )
    probes = _count_probes(monkeypatch)
    code, out, _ = run_cli(capsys, "zeros", "--config", str(cfg_path))
    assert code == 0
    assert len(probes) == 1
    payload = json.loads(out)
    assert payload["zeros"] == []
    assert payload["orbit_classes"] == 0
    assert "message" not in payload


def test_zeros_degenerate_forcing_message(capsys, monkeypatch):
    probes = _count_probes(monkeypatch)
    code, out, _ = run_cli(capsys, "zeros", "--f1", "0", "--f2", "0", "--mode", "mode1")
    assert code == 0
    assert len(probes) == 1
    payload = json.loads(out)
    assert payload["zeros"] == []
    assert payload["orbit_classes"] == 0
    assert "identically zero" in payload["message"]


@pytest.mark.parametrize("k", [9, 17, 33])
def test_zeros_high_harmonic_forcing_is_degenerate(capsys, k):
    code, out, _ = run_cli(
        capsys, "zeros", "--f1", "0", "--f2", f"sin({k} * w1 * tau)", "--mode", "mode1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zeros"] == []
    assert payload["message"] == DEGENERATE_MESSAGE


# Corollary 1's forcing plus a term that is 0 where th1^2 < 9 and NaN beyond:
# the two agree wherever this one is finite, and all 4 zeros lie there.
PARTLY_FAULTING_F2 = "(1 - th1^2) * sin(w1 * tau) + 0 * sqrt(9 - th1^2)"


def test_zeros_survive_probe_points_that_fault(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--f1", "0", "--f2", PARTLY_FAULTING_F2, "--r1", "0.1", "--r2", "10"
    )
    assert code == 0
    payload = json.loads(out)
    assert "message" not in payload
    alphas = np.array([record["alpha"] for record in payload["zeros"]])
    assert alphas.shape == (4, 2)
    assert np.abs(alphas - np.array(oracles.CORO1_ZEROS)).max() <= 1e-7


def test_zeros_degenerate_where_the_forcing_is_finite(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--f1", "0", "--f2", "0 * sqrt(9 - th1^2)", "--r1", "0.1", "--r2", "10"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zeros"] == []
    assert payload["message"] == DEGENERATE_MESSAGE


def test_zeros_exit_3_when_every_probe_point_faults(capsys):
    # At r1 = 4 every orbit of the annulus reaches th1^2 > 9.
    code, _, err = run_cli(
        capsys, "zeros", "--f1", "0", "--f2", PARTLY_FAULTING_F2, "--r1", "4", "--r2", "10"
    )
    assert code == 3
    assert "numerical failure" in err


def test_zeros_config_echo_reproduces_the_run(capsys, tmp_path):
    overrides = {
        "dedup_radius": 1e-5,
        "det_threshold": 1e-7,
        "shoot_tol": 1e-9,
        "grid_radial": 12,
        "grid_angular": 10,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(overrides))
    code, out, _ = run_cli(capsys, "zeros", "--preset", "corollary1", "--config", str(cfg_path))
    assert code == 0
    run_cfg = merge_config(PRESETS["corollary1"], overrides)
    assert merge_config(ExperimentConfig(), json.loads(out)["config"]) == run_cfg


def test_zeros_with_a_subnormal_dedup_radius_keeps_every_seeds_zero(capsys, tmp_path):
    # alpha / 1e-310 overflows to inf, which must neither raise nor warn
    # (the suite, like CI's console-script step, makes warnings errors).
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text('{"dedup_radius": 1e-310}')
    code, out, _ = run_cli(capsys, "zeros", "--preset", "corollary1", "--config", str(cfg_path))
    assert code == 0
    # No two seeds stop on the same bits, so each of the 480 seeds that
    # converge inside the annulus reports its own zero.
    alphas = np.array([zero["alpha"] for zero in json.loads(out)["zeros"]])
    assert len(alphas) == 480
    assert len(np.unique(alphas, axis=0)) == 480
    gaps = np.abs(alphas[:, None, :] - np.array(oracles.CORO1_ZEROS)[None]).max(axis=2)
    assert gaps.min(axis=1).max() <= 1e-8


def test_zeros_report_escapes_control_characters(capsys):
    # The expression tokenizer skips \v, \f and \x1c as whitespace, so the
    # run succeeds and the config echo must escape them to stay valid JSON.
    f2 = "(1 - th1^2)\v*\fsin(w1 *\x1c tau)"
    code, out, _ = run_cli(capsys, "zeros", "--preset=corollary1", "--f2", f2)
    assert code == 0
    assert json.loads(out)["config"]["f2"] == f2


def test_zeros_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "zeros", "--preset", "corollary2")
    _, second, _ = run_cli(capsys, "zeros", "--preset", "corollary2")
    assert first == second


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_empty_eps_is_averaging_only(capsys, monkeypatch):
    # With no cases to shoot, nothing is integrated.
    flows = []
    monkeypatch.setattr(continuation, "flow_map", lambda *args: flows.append(args))
    for preset, zeros in (("corollary1", 4), ("corollary2", 1)):
        code, out, _ = run_cli(capsys, "verify", "--preset", preset, "--eps", "")
        assert code == 0
        payload = json.loads(out)
        assert payload["runs"] == []
        assert len(payload["zeros"]) == zeros
    assert flows == []


def test_verify_corollary2_single_eps(capsys, tmp_path):
    out_dir = tmp_path / "verify"
    code, out, _ = run_cli(
        capsys, "verify", "--preset", "corollary2", "--eps", "1e-3", "--out", str(out_dir)
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["runs"]) == 1
    run = payload["runs"][0]
    assert run["converged"] is True
    assert run["residual"] <= 1e-9
    assert run["distance_to_prediction"] <= 10.0 * 1e-3
    assert payload["verified"] == [{"epsilon": 1e-3, "verified_orbit_classes": 1}]
    traj = (out_dir / run["trajectory_file"]).read_text().splitlines()
    assert traj[0] == "tau,th1,th1d,th2,th2d"
    assert len(traj) == 1 + 256


def test_verify_corollary1_counts_two_orbits(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "corollary1", "--eps", "1e-3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["runs"]) == 4  # one run per zero
    assert all(run["converged"] for run in payload["runs"])
    # antipodal zeros continue to the same orbit class: 4 runs, 2 orbits
    assert payload["verified"] == [{"epsilon": 1e-3, "verified_orbit_classes": 2}]


def test_verify_samples_only_what_it_writes(capsys, tmp_path, monkeypatch):
    # Without --out no trajectory is written, so no orbit is sampled and the
    # report is unchanged; with --out every run still writes 256 rows.
    code, expected, _ = run_cli(capsys, "verify", "--preset", "corollary1")
    assert code == 0

    def refuse(*args, **kwargs):
        raise RuntimeError("sampled an orbit that is not written")

    with monkeypatch.context() as patch:
        patch.setattr(continuation, "sample_states", refuse)
        code, out, _ = run_cli(capsys, "verify", "--preset", "corollary1")
    assert code == 0 and out == expected
    out_dir = tmp_path / "verify"
    code, out, _ = run_cli(capsys, "verify", "--preset", "corollary1", "--out", str(out_dir))
    assert code == 0
    runs = json.loads(out)["runs"]
    assert len(runs) == 16
    for run in runs:
        traj = (out_dir / run["trajectory_file"]).read_text().splitlines()
        assert traj[0] == "tau,th1,th1d,th2,th2d" and len(traj) == 1 + 256


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def test_orbit_quarter_period_samples(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--mode", "mode1", "--alpha", "1,0", "--samples", "4")
    assert code == 0
    _, rows = _csv_rows(out)
    assert len(rows) == 4
    for i, row in enumerate(rows):
        tau = i * T1 / 4.0
        assert row[0] == pytest.approx(tau, abs=0)
        expected = unperturbed_orbit(Mode.MODE1, (1.0, 0.0), tau)
        assert np.abs(np.array(row[1:]) - expected).max() <= 1e-14


def test_orbit_single_sample(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--mode", "mode2", "--alpha", "1,0", "--samples", "1")
    assert code == 0
    _, rows = _csv_rows(out)
    assert len(rows) == 1 and rows[0][0] == 0.0


def test_orbit_zero_amplitudes(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--mode", "mode2", "--alpha", "0,0", "--samples", "5")
    assert code == 0
    _, rows = _csv_rows(out)
    assert all(all(v == 0.0 for v in row[1:]) for row in rows)


# ---------------------------------------------------------------------------
# Config plumbing and exit codes
# ---------------------------------------------------------------------------

def test_preset_expressions_are_pinned():
    assert PRESETS["corollary1"].f1 == "0"
    assert PRESETS["corollary1"].f2 == "(1 - th1^2) * sin(w1 * tau)"
    assert PRESETS["corollary1"].mode == "mode1"
    assert PRESETS["corollary2"].f1 == "th2d + th1^2 * cos(w2 * tau)"
    assert PRESETS["corollary2"].f2 == "0"
    assert PRESETS["corollary2"].mode == "mode2"
    assert PRESETS["corollary1"].epsilons == (1e-2, 5e-3, 2.5e-3, 1e-3)


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"f2": "sin(w1 * tau)", "mode": "mode1", "r2": 5.0}))
    code, out, _ = run_cli(
        capsys, "average", "--config", str(cfg_path), "--f2", "0", "--point", "1,1"
    )
    assert code == 0  # flag overrode the file's forcing; zero forcing averages to zero
    _, rows = _csv_rows(out)
    assert rows[0][2] == 0.0 and rows[0][3] == 0.0


def test_load_config_round_trip(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"f2": "sin(w1 * tau)", "p": 1, "q": 1, "r2": 7.5}))
    cfg = merge_config(ExperimentConfig(), read_config_file(cfg_path), str(cfg_path))
    assert cfg.f2 == "sin(w1 * tau)"
    assert cfg.r2 == 7.5


def test_each_forcing_text_is_parsed_once(capsys, tmp_path):
    # The config is validated after every layer and then built into a
    # spec, but each forcing text of the run is parsed once.
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"r2": 10.0}))
    for extra in ([], ["--config", str(cfg_path)], ["--config", str(cfg_path), "--tol", "1e-11"]):
        expr.parse.cache_clear()
        code, _, _ = run_cli(capsys, "zeros", "--preset", "corollary1", *extra)
        assert code == 0
        assert expr.parse.cache_info().misses == 2


@pytest.mark.parametrize(
    "bad, flags, message",
    [
        ({"f1": "2x"}, ["--f1", "0"], "f1: "),
        ({"r1": -1.0}, ["--r1", "0.5"], "annulus needs finite 0 < r1 < r2"),
    ],
    ids=["forcing", "annulus"],
)
def test_a_bad_file_value_is_reported_under_a_flag_override(capsys, tmp_path, bad, flags, message):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(bad))
    code, out, err = run_cli(capsys, "zeros", "--config", str(cfg_path), *flags)
    assert code == 2 and out == ""
    assert message in err


def test_unknown_config_key_is_exit_2(capsys, tmp_path):
    cfg_path = tmp_path / "exp.json"
    for overrides in ({"zz_top": 1}, {"jobs": 2}):
        cfg_path.write_text(json.dumps(overrides))
        code, _, err = run_cli(capsys, "zeros", "--config", str(cfg_path))
        assert code == 2
        assert "unknown key" in err


def test_bad_expression_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "zeros", "--f1", "2x", "--f2", "0")
    assert code == 2
    assert "config error" in err


def test_non_periodic_forcing_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "average", "--f1", "0", "--f2", "sin(tau)", "--mode", "mode1", "--point", "0,0")
    assert code == 2
    assert "periodic" in err


@pytest.mark.parametrize(
    "text", ["1/0", "0^(-1)", "(0 - 2)^0.5", "pi / (pi - pi)", "th1 * (0 - 2)^0.5"]
)
def test_domain_fault_in_forcing_is_exit_2(capsys, text):
    # A fault in literals alone is a config error like any other fault.
    code, _, err = run_cli(capsys, "zeros", "--f1", text, "--f2", "0", "--r1", "0.1", "--r2", "2")
    assert code == 2
    assert "not finite on the audit grid" in err


def test_zero_epsilon_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--preset", "corollary1", "--eps", "1e-3,0")
    assert code == 2
    assert "epsilon" in err


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--tol", "inf"], None),
        (["--tol", "nan"], None),
        (["--r2", "inf"], None),
        ([], '{"newton_tol": NaN}'),
        ([], '{"dedup_radius": Infinity}'),
        ([], '{"shoot_tol": NaN}'),
        ([], '{"det_threshold": Infinity}'),
        ([], '{"r2": Infinity}'),
    ],
    ids=[
        "flag-tol-inf", "flag-tol-nan", "flag-r2-inf", "file-newton_tol", "file-dedup_radius",
        "file-shoot_tol", "file-det_threshold", "file-r2",
    ],
)
def test_non_finite_number_is_exit_2(capsys, tmp_path, flags, config):
    # Float flags and JSON files both accept NaN and Infinity; each is
    # refused before any work, not met later as a crash or a numerical failure.
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        flags = ["--config", str(path)]
    code, out, err = run_cli(capsys, "zeros", "--preset", "corollary1", *flags)
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--mode", "mode1", "--alpha", "inf,0"],
        ["average", "--preset", "corollary1", "--point", "nan,0"],
        ["average", "--preset", "corollary1", "--grid", "0:inf:3"],
    ],
    ids=["alpha", "point", "grid"],
)
def test_non_finite_pair_or_grid_is_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "finite" in err


def test_quadrature_cap_is_exit_3(capsys):
    # A kinked forcing keeps node refinement from ever meeting 1e-12.
    code, _, err = run_cli(
        capsys,
        "average",
        "--f1", "0",
        "--f2", "abs(sin(w1 * tau) - 0.5)",
        "--mode", "mode1",
        "--tol", "1e-12",
        "--point", "1,1",
    )
    assert code == 3
    assert "numerical failure" in err


def test_merge_config_rejects_bad_types():
    # One case per rule of _coerce and ExperimentConfig.validate, each with
    # the message that names what to fix.
    cases = [
        ({"f1": 1}, "f1 must be a string, got int"),
        ({"p": "one"}, "p must be an integer, got 'one'"),
        ({"p": 2.5}, "p must be an integer, got 2.5"),
        ({"grid_radial": True}, "grid_radial must be an integer, got True"),
        ({"r2": True}, "r2 must be a number, got True"),
        ({"r2": "big"}, "r2 must be a number, got 'big'"),
        ({"epsilons": "nope"}, "epsilons must be a list of numbers, got 'nope'"),
        ({"epsilons": [1e-3, False]}, "epsilons entries must be numbers, got False"),
        ({"mode": "mode3"}, "mode must be 'mode1' or 'mode2', got 'mode3'"),
        ({"p": 2, "q": 4}, "resonance p:q must be coprime positive integers, got 2:4"),
        ({"r1": -1.0}, "annulus needs finite 0 < r1 < r2, got r1=-1.0, r2=50.0"),
    ]
    for overrides, message in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            merge_config(ExperimentConfig(), overrides)


def test_shooting_failure_recorded_and_exit_3(capsys, monkeypatch):
    import pendavg.cli as cli_mod
    from pendavg.continuation import ShootingError

    def boom(spec, eps, guesses, **kwargs):
        return [ShootingError("synthetic failure") for _ in eps]

    monkeypatch.setattr(cli_mod, "shoot_many", boom)
    code, out, _ = run_cli(capsys, "verify", "--preset", "corollary2", "--eps", "1e-3")
    assert code == 3
    payload = json.loads(out)
    assert payload["runs"][0]["converged"] is False
    assert "synthetic failure" in payload["runs"][0]["error"]


def test_a_faulting_case_fails_alone_and_exit_3(capsys):
    # Every case is shot in one batch.  Corollary 1's forcing plus a term
    # that is NaN where th2d^2 > X0^2 + 0.3 (4.686... is X0^2) keeps all four
    # zeros, but at eps 0.2 the flows of the (+-X0, 0) orbits stray past it.
    # Those two cases fail with the fault each meets alone; the others are
    # reported as usual.
    f2 = "(1 - th1^2) * sin(w1 * tau) + 0 * sqrt(4.686291501015239 + 0.3 - th2d^2)"
    code, out, _ = run_cli(capsys, "verify", "--preset", "corollary1", "--f2", f2, "--eps", "0.2,1e-3")
    assert code == 3
    runs = json.loads(out)["runs"]
    assert [(run["epsilon"], run["zero_index"]) for run in runs] == [
        (eps, zi) for eps in (1e-3, 0.2) for zi in range(4)
    ]
    failed = [run for run in runs if not run["converged"]]
    assert [(run["epsilon"], run["zero_index"]) for run in failed] == [(0.2, 0), (0.2, 3)]
    spec = model.PerturbationSpec.from_strings("0", f2, "mode1", 1, 1)
    for run in failed:
        guess = continuation.predicted_initial_state(Mode.MODE1, np.array(run["alpha"]))
        with pytest.raises(ExprDomainError) as alone:
            continuation.shoot_periodic(spec, 0.2, guess, n_samples=0)
        assert run["error"] == str(alone.value)
    assert all(run["residual"] <= 1e-10 for run in runs if run["converged"])


def test_reports_write_the_library_records(capsys, tmp_path):
    # A zeros entry is a ZeroResult, and a converged verify run is a
    # PeriodicOrbit without its samples plus the CLI's own keys; a failed
    # run has only what the case and its error say.
    zero_keys = {field.name for field in fields(averaging.ZeroResult)}
    orbit_keys = {field.name for field in fields(continuation.PeriodicOrbit)} - {"samples_tau", "samples"}
    run_keys = orbit_keys | {"zero_index", "alpha", "converged", "distance_over_eps"}
    code, out, _ = run_cli(capsys, "zeros", "--preset", "corollary2")
    assert code == 0
    assert [set(zero) for zero in json.loads(out)["zeros"]] == [zero_keys]
    f2 = "(1 - th1^2) * sin(w1 * tau) + 0 * sqrt(4.686291501015239 + 0.3 - th2d^2)"
    for out_dir, keys in ((None, run_keys), (tmp_path, run_keys | {"trajectory_file"})):
        argv = ["verify", "--preset", "corollary1", "--f2", f2, "--eps", "0.2,1e-3"]
        code, out, _ = run_cli(capsys, *argv, *(["--out", str(out_dir)] if out_dir else []))
        assert code == 3
        runs = json.loads(out)["runs"]
        assert [set(run) for run in runs if run["converged"]] == [keys] * 6
        failed = [set(run) for run in runs if not run["converged"]]
        assert failed == [{"zero_index", "alpha", "epsilon", "converged", "error"}] * 2


def test_log_level_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PENDAVG_LOG", "info")
    code, _, err = run_cli(capsys, "zeros", "--preset", "corollary2")
    assert code == 0
    assert "found 1 zeros in 1 orbit classes" in err


@pytest.mark.parametrize(
    "name, level",
    [
        ("debug", logging.DEBUG),
        ("Info", logging.INFO),
        ("warn", logging.WARNING),
        ("error", logging.ERROR),
        ("basic_format", logging.WARNING),
        ("Logger", logging.WARNING),
        ("loud", logging.WARNING),
        ("", logging.WARNING),
    ],
)
def test_log_level_names_are_logging_level_names_alone(capsys, monkeypatch, name, level):
    # Any other name, an upper-case attribute of ``logging`` among them,
    # leaves the level at WARNING.
    monkeypatch.setenv("PENDAVG_LOG", name)
    code, out, _ = run_cli(capsys, "freqs")
    assert code == 0 and out.startswith("omega1 = ")
    assert logging.getLogger("pendavg").getEffectiveLevel() == level


def test_main_leaves_the_root_logger_as_it_is(capsys, monkeypatch, tmp_path):
    # An in-process caller keeps its root handlers, open, and its root
    # level; pendavg's records reach them too.
    root = logging.getLogger()
    handler = logging.FileHandler(tmp_path / "caller.log")
    root.addHandler(handler)
    handlers, level = list(root.handlers), root.level
    try:
        monkeypatch.setenv("PENDAVG_LOG", "info")
        code, _, err = run_cli(capsys, "zeros", "--preset", "corollary2")
        assert code == 0 and "found 1 zeros in 1 orbit classes" in err
        assert root.handlers == handlers and root.level == level
        assert handler.stream is not None and not handler.stream.closed
    finally:
        root.removeHandler(handler)
        handler.close()
    assert "found 1 zeros in 1 orbit classes" in (tmp_path / "caller.log").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["average", "--preset", "corollary1", "--point", "0,0"],
        ["zeros", "--preset", "corollary1"],
        ["verify", "--preset", "corollary1"],
        ["orbit", "--mode", "mode1", "--alpha", "1,0"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_out_dir_that_cannot_be_made_fails_before_any_work(capsys, tmp_path, argv):
    # Under a regular file, or the file itself: exit 2, nothing on stdout,
    # and nothing written.
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for out_dir in (blocker / "sub", blocker):
        code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: cannot create --out directory {str(out_dir)!r}: ")
    assert blocker.read_text() == "kept\n" and list(tmp_path.iterdir()) == [blocker]


def test_console_entry_point():
    import os
    import subprocess
    import sys as _sys

    import pendavg

    # The child imports pendavg from where this process found it, installed
    # or not.
    src = os.path.dirname(os.path.dirname(pendavg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [_sys.executable, "-m", "pendavg.cli", "freqs"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("omega1 = ")
