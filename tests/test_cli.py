import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rnmlab.cli import (ConfigError, build_potential, cfg_get, parse_config,
                        run)
from rnmlab.orthopoly import DivergentNormError, GridResolutionError
from rnmlab.potential import make_ginibre
from rnmlab.sampler import SamplerConfig, collect_mcmc, stream_rng


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_parse_config_roundtrip(tmp_path):
    path = write_config(tmp_path, """
# comment line
potential.family = ginibre
tau = 1.0
n = 8
sampler.kind = matrix   # trailing comment
n_list = 8, 16
flag = true
""")
    cfg = parse_config(path)
    assert cfg_get(cfg, "potential.family") == "ginibre"
    assert cfg_get(cfg, "tau") == 1.0
    assert cfg_get(cfg, "n") == 8
    assert cfg_get(cfg, "n_list") == [8, 16]
    assert cfg_get(cfg, "flag") is True
    assert cfg_get(cfg, "missing", 7) == 7
    with pytest.raises(ConfigError):
        cfg_get(cfg, "missing", required=True)


def test_parse_config_rejects_garbage(tmp_path):
    path = write_config(tmp_path, "just some words\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_build_potential_families(tmp_path):
    assert build_potential({"potential.family": "ginibre"}).name == "ginibre"
    assert build_potential({"potential.family": "power",
                            "potential.p": "2"}).name == "power2"
    r = np.linspace(0.05, 6.0, 400)
    table = np.column_stack([r, r**2, 2 * r, np.full_like(r, 2.0)])
    prof = tmp_path / "profile.csv"
    header = "r,q,dq,d2q"
    np.savetxt(prof, table, delimiter=",", header=header, comments="")
    pot = build_potential({"potential.family": "custom",
                           "potential.profile_file": str(prof)})
    assert pot.evaluate(1.0 + 0.0j) == pytest.approx(1.0, rel=1e-8)
    with pytest.raises(ConfigError):
        build_potential({"potential.family": "hyperbolic"})


def test_identities_subcommand(tmp_path):
    out = tmp_path / "out"
    assert run(["identities", "--out", str(out)]) == 0
    summary = json.loads((out / "identities_summary.json").read_text())
    assert summary["pass"] is True
    assert summary["schema_version"] == 1
    table = (out / "identities.csv").read_text().splitlines()
    assert table[0] == "k,zero_sum,quadratic_sum,status"
    assert len(table) == 10  # header + k = 2..10
    assert all(row.endswith("exact pass") for row in table[1:])


def test_sample_rejects_n_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 0\nseed = 1\n")
    code = run(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "n must be >= 1" in capsys.readouterr().err


def test_m_without_tau_sets_the_droplet(tmp_path):
    # m = 32 at n = 16 is tau = 1/2: the same experiment as tau = 0.5
    blobs = []
    for name, line in (("m", "m = 32"), ("tau", "tau = 0.5")):
        cfg = write_config(tmp_path, f"n = 16\n{line}\nsamples = 20\n"
                                     "sampler.kind = dpp\nseed = 3\n")
        out = tmp_path / name
        run(["clt", "--config", str(cfg), "--out", str(out)])
        blobs.append((out / "clt_summary.json").read_bytes()
                     + (out / "fluct_values.csv").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("lines, message", [
    ("m = 32\ntau = 1.0", "disagree"),
    ("m = 16\ntau = 0.5", "disagree"),
    ("tau = 0", "tau must be > 0"),
    ("m = -4", "m must be > 0"),
], ids=["m32-tau1", "m16-tau0.5", "tau0", "m-4"])
def test_bad_m_tau_is_config_error(tmp_path, capsys, lines, message):
    cfg = write_config(tmp_path, f"n = 16\n{lines}\n")
    assert run(["kernel", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_sample_requires_seed(tmp_path):
    cfg = write_config(tmp_path, "n = 4\n")
    assert run(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_subcommand_exits_2(tmp_path, capsys):
    assert run(["transmogrify"]) == 2


def test_sample_csv_output(tmp_path):
    cfg = write_config(tmp_path, "n = 4\nsamples = 3\nsampler.kind = matrix\n")
    out = tmp_path / "out"
    assert run(["sample", "--config", str(cfg), "--seed", "9",
                "--out", str(out)]) == 0
    rows = (out / "configurations.csv").read_text().splitlines()
    assert rows[0] == "sample_id,point_id,re,im"
    assert len(rows) == 1 + 3 * 4
    meta = json.loads((out / "sample_metadata.json").read_text())
    assert meta["seed"] == 9
    assert meta["sampler"] == "matrix"
    assert meta["n"] == 4


@pytest.mark.parametrize("threads", [0, -2])
def test_sample_threads_below_one_is_config_error(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, "n = 4\nsamples = 3\n")
    assert run(["sample", "--config", str(cfg), "--seed", "3",
                "--out", str(tmp_path / "o"), "--threads", str(threads)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: --threads must be >= 1, got {threads}")


def test_sample_mcmc_acceptance_rate_per_chain(tmp_path):
    # each chain reports its last running rate, accepted / attempted over the
    # whole chain; the headline rate is their mean
    cfg = write_config(tmp_path, "n = 4\nsamples = 5\nchains = 2\nseed = 7\n"
                                 "sampler.kind = mcmc\nsampler.burn_in_sweeps = 20\n"
                                 "sampler.thin_stride = 3\n")
    out = tmp_path / "out"
    assert run(["sample", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "sample_metadata.json").read_text())
    scfg = SamplerConfig(master_seed=7, burn_in_sweeps=20, thin_stride=3)
    expected = [collect_mcmc(make_ginibre(), 4.0, 4, scfg, stream_rng(7, idx),
                             count)[-1].meta["acceptance_rate"]
                for idx, count in enumerate((3, 2))]
    assert meta["acceptance_rate_per_chain"] == expected
    assert expected[0] != expected[1]
    assert meta["acceptance_rate"] == pytest.approx(np.mean(expected), rel=1e-15)


def test_sample_dpp_ignores_envelope_margin(tmp_path):
    # the exact sampler has no envelope; the old key is ignored like any other
    cfg = write_config(tmp_path, "n = 4\nsamples = 3\nsampler.kind = dpp\n"
                                 "sampler.envelope_margin = 0.5\n")
    out = tmp_path / "out"
    assert run(["sample", "--config", str(cfg), "--seed", "9",
                "--out", str(out)]) == 0
    rows = (out / "configurations.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 4


def test_sample_checks_format_before_drawing(tmp_path, monkeypatch, capsys):
    # a misspelt format is a configuration error before any sample is drawn
    monkeypatch.setattr("rnmlab.cli.draw_samples",
                        lambda *args, **kwargs: pytest.fail("draw_samples was called"))
    cfg = write_config(tmp_path, "n = 4\nsamples = 3\nseed = 4\noutput.format = xml\n")
    assert run(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "output.format" in capsys.readouterr().err


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("sub, base, retired", [
    ("sample", "n = 4\nsamples = 3\nseed = 2\nsampler.kind = mcmc\n"
               "sampler.burn_in_sweeps = 20\n", "sampler.proposal_scale = 0.5"),
    ("identities", "", "identities.k_max = 3"),
    ("berezin", "n = 8\n", "berezin.anchors = 0.1"),
], ids=["proposal_scale", "k_max", "anchors"])
def test_retired_keys_are_ignored(tmp_path, sub, base, retired):
    # a retired key is ignored like any unknown key: the same output tree
    trees, codes = [], []
    for name, text in (("without", base), ("with", base + retired + "\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        codes.append(run([sub, "--config", str(cfg), "--out", str(out)]))
        trees.append(_tree(out))
    assert codes[0] == codes[1] < 2
    assert trees[0] == trees[1]


def test_sample_jsonl_output(tmp_path):
    cfg = write_config(tmp_path,
                       "n = 3\nsamples = 2\noutput.format = jsonl\nseed = 4\n")
    out = tmp_path / "out"
    assert run(["sample", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "configurations.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert len(rec["re"]) == 3


def test_clt_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, """
n = 16
samples = 60
sampler.kind = matrix
test_function.radius = 0.5
seed = 31
""")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run(["clt", "--config", str(cfg), "--out", str(out)])
        outs.append((out / "clt_summary.json").read_bytes()
                    + (out / "fluct_values.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind", ["matrix", "dpp", "mcmc"])
def test_clt_chains_deterministic_with_threads(tmp_path, kind):
    cfg = write_config(tmp_path, f"""
n = 8
samples = 40
chains = 4
sampler.kind = {kind}
seed = 5
""")
    blobs = []
    for threads, name in [(1, "serial"), (4, "pooled")]:
        out = tmp_path / name
        run(["clt", "--config", str(cfg), "--out", str(out),
             "--threads", str(threads)])
        blobs.append((out / "fluct_values.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_scaling_subcommand(tmp_path):
    cfg = write_config(tmp_path, "n = 128\n")
    out = tmp_path / "out"
    assert run(["scaling", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "scaling_summary.json").read_text())
    assert summary["pass"] is True
    prof = (out / "conditioned_profile.csv").read_text().splitlines()
    assert prof[0] == "distance,value,prediction"


def test_scaling_anchor_where_laplacian_vanishes(tmp_path, capsys):
    # the default anchor 0 of a power field has lap Q = 0: a configuration
    # error, not a NaN deviation in the summary
    cfg = write_config(tmp_path, "potential.family = power2\nn = 32\n")
    out = tmp_path / "out"
    assert run(["scaling", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (out / "scaling_summary.json").exists()


def test_kernel_subcommand_with_gnuplot(tmp_path):
    cfg = write_config(tmp_path, "n = 32\n")
    out = tmp_path / "out"
    assert run(["kernel", "--config", str(cfg), "--out", str(out),
                "--gnuplot"]) == 0
    assert (out / "kernel_diagonal.csv").read_text().splitlines()[0] == \
        "z_re,z_im,R1,predicted,residual"
    assert (out / "kernel.gp").exists()


def test_kernel_subcommand_custom_field_has_no_nan(tmp_path):
    r = np.linspace(0.0, 6.0, 600)
    table = np.column_stack([r, r**2 / 2 + r**4 / 4, r + r**3, 1.0 + 3.0 * r**2])
    prof = tmp_path / "profile.csv"
    np.savetxt(prof, table, delimiter=",", header="r,q,dq,d2q", comments="")
    cfg = write_config(tmp_path, f"potential.family = custom\n"
                                 f"potential.profile_file = {prof}\nn = 32\n")
    out = tmp_path / "out"
    run(["kernel", "--config", str(cfg), "--out", str(out)])
    rows = np.loadtxt(out / "kernel_diagonal.csv", delimiter=",", skiprows=1)
    assert rows.shape == (44, 5)
    assert np.all(np.isfinite(rows))


def _quartic_profile(r):
    """The benchmark's custom field q = r^2/2 + r^4/4 as r,q,q',q'' rows."""
    return np.column_stack([r, r**2 / 2 + r**4 / 4, r + r**3, 1.0 + 3.0 * r**2])


def _write_profile(path, table):
    np.savetxt(path, table, delimiter=",", header="r,q,dq,d2q", comments="")
    return path


@pytest.mark.parametrize("defect, message", [
    ("duplicate_knot", "strictly increasing"),
    ("decreasing_knot", "strictly increasing"),
    ("nan_entry", "non-finite q'"),
    ("inf_entry", "non-finite r"),
    ("single_row", "at least 2 rows"),
])
def test_custom_profile_table_defects_exit_2(tmp_path, capsys, defect, message):
    table = _quartic_profile(np.linspace(0.0, 6.0, 60))
    if defect == "duplicate_knot":
        table = np.insert(table, 30, table[30], axis=0)
    elif defect == "decreasing_knot":
        table[[30, 31]] = table[[31, 30]]
    elif defect == "nan_entry":
        table[10, 2] = np.nan
    elif defect == "inf_entry":
        table[-1, 0] = np.inf
    else:
        table = table[:1]
    prof = _write_profile(tmp_path / "profile.csv", table)
    cfg = write_config(tmp_path, f"potential.family = custom\n"
                                 f"potential.profile_file = {prof}\nn = 16\n")
    assert run(["kernel", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err


def test_kernel_nan_residual_fails_check(tmp_path, monkeypatch):
    from rnmlab.potential import Potential
    monkeypatch.setattr(Potential, "subleading_density",
                        lambda self, z, step=None: np.nan)
    cfg = write_config(tmp_path, "n = 16\n")
    out = tmp_path / "out"
    assert run(["kernel", "--config", str(cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "kernel_summary.json").read_text())
    check = next(c for c in summary["checks"]
                 if c["name"] == "diagonal_expansion_sup_residual")
    assert check["pass"] is False


@pytest.mark.parametrize("error, code, label", [
    (GridResolutionError("grid too coarse"), 3, "numerical failure"),
    (FloatingPointError("density came out negative"), 3, "numerical failure"),
    (DivergentNormError("norm diverges"), 2, "configuration error"),
])
def test_error_exit_codes(tmp_path, monkeypatch, capsys, error, code, label):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr("rnmlab.cli.weighted_kernel", fail)
    cfg = write_config(tmp_path, "n = 16\n")
    assert run(["kernel", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.startswith(f"{label}: {error}")


@pytest.mark.parametrize("chains, samples", [(0, 40), (-1, 40), (1, 3)])
def test_clt_bad_sample_bank_is_config_error(tmp_path, capsys, chains, samples):
    cfg = write_config(tmp_path, f"n = 8\nseed = 5\nchains = {chains}\nsamples = {samples}\n")
    assert run(["clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_cumulants_subcommand(tmp_path):
    cfg = write_config(tmp_path, "n_list = 16, 32\ncumulants.k_max = 3\n")
    out = tmp_path / "out"
    code = run(["cumulants", "--config", str(cfg), "--out", str(out)])
    rows = (out / "cumulants.csv").read_text().splitlines()
    assert rows[0] == "n,k,C_k,prediction"
    assert len(rows) == 1 + 2 * 3
    # at n = 32 the asymptotic variance check is out of reach: exit code 1
    assert code == 1
    summary = json.loads((out / "cumulants_summary.json").read_text())
    assert summary["pass"] is False


def test_cumulants_rejects_m(tmp_path, capsys):
    # one m cannot hold for every n of the sweep, so m is refused, not ignored
    cfg = write_config(tmp_path, "n_list = 16\nm = 32\n")
    assert run(["cumulants", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "tau" in err


def test_cumulants_subcommand_high_order(tmp_path):
    cfg = write_config(tmp_path, "n_list = 16\ncumulants.k_max = 8\n")
    out = tmp_path / "out"
    code = run(["cumulants", "--config", str(cfg), "--out", str(out)])
    assert code != 2
    rows = (out / "cumulants.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in rows[1:]] == [str(k) for k in range(1, 9)]


def test_boundary_subcommand(tmp_path):
    cfg = write_config(tmp_path, "n = 64\nsamples = 400\nseed = 11\n")
    out = tmp_path / "out"
    assert run(["boundary", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "boundary_summary.json").read_text())
    assert summary["pass"] is True
    assert summary["prediction"]["v_f2"] == pytest.approx(0.5, abs=1e-9)
    rows = (out / "boundary_fluct.csv").read_text().splitlines()
    assert rows[0] == "sample_id,fluct"
    assert len(rows) == 401


@pytest.mark.parametrize("kind, samples", [("matrix", 50), ("dpp", 200)])
def test_boundary_samples_the_configured_droplet(tmp_path, kind, samples):
    # at tau = 0.5 Ginibre matrices (m = n) do not realise the droplet: a
    # configuration error; the dpp sampler draws at m = n / tau
    cfg = write_config(tmp_path, f"n = 16\ntau = 0.5\nsamples = {samples}\nseed = 3\n"
                                 f"sampler.kind = {kind}\n")
    out = tmp_path / "out"
    code = run(["boundary", "--config", str(cfg), "--out", str(out)])
    if kind == "matrix":
        assert code == 2
    else:
        assert code < 2
        summary = json.loads((out / "boundary_summary.json").read_text())
        assert summary["prediction"]["v_f2"] == pytest.approx(0.25, abs=1e-9)


def test_berezin_subcommand(tmp_path):
    cfg = write_config(tmp_path, "n = 24\nberezin.transform_anchor = 0.05\n")
    out = tmp_path / "out"
    code = run(["berezin", "--config", str(cfg), "--out", str(out)])
    summary = json.loads((out / "berezin_summary.json").read_text())
    names = {c["name"] for c in summary["checks"]}
    assert any(name.startswith("berezin_mass") for name in names)
    assert "pinned_identity_residual" in names


def test_berezin_subcommand_power_field(tmp_path):
    # lap Q(0) = 0 on a power field; only an expansion at 0 would need it
    cfg = write_config(tmp_path, "potential.family = power2\nn = 16\n")
    out = tmp_path / "out"
    code = run(["berezin", "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1)
    summary = json.loads((out / "berezin_summary.json").read_text())
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["pinned_identity_residual"]["pass"]
    assert checks["pinned_expectation_residual"]["pass"]
    # B^{<0>} = e^{-mQ} / h_0 on every radial field
    table = np.loadtxt(out / "berezin_profile.csv", delimiter=",", skiprows=1)
    assert np.allclose(table[:, 1], table[:, 2], rtol=1e-10, atol=0.0)


def test_berezin_transform_anchor_where_laplacian_vanishes(tmp_path, capsys):
    cfg = write_config(tmp_path, "potential.family = power2\nn = 16\n"
                                 "berezin.transform_anchor = 0\n")
    assert run(["berezin", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "lap Q" in capsys.readouterr().err


def test_ginibre_cli_loads_no_scipy(tmp_path):
    # a fresh interpreter: the test session itself has SciPy loaded
    (tmp_path / "exp.cfg").write_text("n = 8\n")
    script = textwrap.dedent(f"""
        import sys
        import rnmlab, rnmlab.cli

        def scipy_modules(step):
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, f"{{step}} loaded {{loaded[:5]}}"

        scipy_modules("import")
        assert rnmlab.cli.run(["identities", "--out", {str(tmp_path / "id")!r}]) == 0
        scipy_modules("identities")
        assert rnmlab.cli.run(["kernel", "--config", {str(tmp_path / "exp.cfg")!r},
                               "--out", {str(tmp_path / "kernel")!r}]) == 0
        scipy_modules("kernel")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_custom_field_cli_loads_no_scipy(tmp_path):
    # a fresh interpreter: kernel, an mcmc sample and a dpp sample on a
    # tabulated profile
    prof = _write_profile(tmp_path / "profile.csv", _quartic_profile(np.linspace(0.0, 6.0, 600)))
    (tmp_path / "exp.cfg").write_text(
        f"potential.family = custom\npotential.profile_file = {prof}\n"
        "n = 16\nsamples = 4\nsampler.kind = mcmc\nsampler.burn_in_sweeps = 100\n")
    (tmp_path / "dpp.cfg").write_text(
        f"potential.family = custom\npotential.profile_file = {prof}\n"
        "n = 16\nsamples = 4\nsampler.kind = dpp\n")
    script = textwrap.dedent(f"""
        import sys
        import rnmlab.cli

        for sub, cfg, out in (("kernel", "exp", "kernel"), ("sample", "exp", "sample"),
                              ("sample", "dpp", "sample_dpp")):
            code = rnmlab.cli.run([sub, "--config", {str(tmp_path)!r} + "/" + cfg + ".cfg",
                                   "--seed", "3", "--out", {str(tmp_path)!r} + "/" + out])
            assert code in (0, 1), f"{{out}} exited {{code}}"
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, f"{{out}} loaded {{loaded[:5]}}"
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sample" / "sample_summary.json").exists()
    assert (tmp_path / "sample_dpp" / "sample_summary.json").exists()
