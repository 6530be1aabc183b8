"""End-to-end tests of the command-line interface."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import numpy as np

from dualpolsim import cli
from dualpolsim.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from dualpolsim.correlation import InvalidCorrelationError, NoSolutionError
from dualpolsim.harness import ConfigError, parse_scenario
from dualpolsim.link import RankDeficientError
from dualpolsim.pattern import PatternFormatError

PATTERN_HEADER = (
    "azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi\n"
)
PATTERN_TEXT = PATTERN_HEADER + "".join(
    f"{-180 + i * 10}, 6.0, -14.0, 5.0, -11.0\n" for i in range(36)
)


@pytest.fixture
def pattern_file(tmp_path):
    path = tmp_path / "pattern.csv"
    path.write_text(PATTERN_TEXT)
    return path


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a malformed argument with status 2
        return exc.code


def test_table1_to_stdout(capsys):
    assert main(["table1", "--xpd", "3,5,10,20,30"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "xpd_db,rho_exact,rho_approx,d_iso_lambda,d_lap_lambda,spread_deg"
    assert len(lines) == 6
    row10 = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert float(row10["rho_exact"]) == pytest.approx(0.5750, abs=5e-4)
    assert float(row10["d_iso_lambda"]) == pytest.approx(0.220, abs=0.002)
    assert float(row10["spread_deg"]) == 26.0


def test_table1_to_file(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    assert main(["table1", "--xpd", "20", "--spread", "20", "--out", str(out_file)]) == EXIT_OK
    capsys.readouterr()
    body = out_file.read_text().strip().splitlines()
    assert len(body) == 2
    assert body[1].startswith("20,0.198")


def test_spacing_isotropic(capsys):
    assert main(["spacing", "--rho", "0.575", "--dist", "iso"]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.2204, abs=0.002)


def test_spacing_laplacian(capsys):
    assert main(["spacing", "--rho", "0.198", "--dist", "lap", "--spread", "26"]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.9518, abs=0.01)


def test_spacing_unreachable_target_exits_3(capsys):
    code = main(["spacing", "--rho", "0.01", "--dist", "lap", "--spread", "26"])
    assert code == EXIT_NUMERIC
    assert "achievable range" in capsys.readouterr().err


def test_spacing_invalid_rho_exits_2(capsys):
    assert main(["spacing", "--rho", "1.5", "--dist", "iso"]) == EXIT_CONFIG


def test_xpd_from_pattern(pattern_file, capsys):
    assert main(["xpd-from-pattern", "--file", str(pattern_file), "--azimuth", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "port1_xpd_db=20.0000" in out
    assert "port2_xpd_db=16.0000" in out


def test_xpd_from_pattern_missing_file(tmp_path, capsys):
    code = main(["xpd-from-pattern", "--file", str(tmp_path / "nope.csv"),
                 "--azimuth", "0"])
    assert code == EXIT_CONFIG


def test_xpd_from_pattern_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(PATTERN_HEADER + "0, 6, -14, 6, -14\n")
    assert main(["xpd-from-pattern", "--file", str(bad), "--azimuth", "0"]) == EXIT_CONFIG
    assert "too few samples" in capsys.readouterr().err


@pytest.mark.parametrize("site", ["cdf-config", "cdf-pattern-file", "xpd-from-pattern"])
def test_non_utf8_input_file_exits_2(tmp_path, capsys, site):
    # a UTF-16 file with its byte-order mark: \xff\xfe starts no UTF-8 text
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe" + PATTERN_TEXT.encode("utf-16-le"))
    if site == "xpd-from-pattern":
        argv = ["xpd-from-pattern", "--file", str(bad), "--azimuth", "0"]
    else:
        config = bad
        if site == "cdf-pattern-file":
            config = tmp_path / "scenario.ini"
            config.write_text("[users]\nu = path_loss_db=80 mean_aod_deg=0\n"
                              f"[sweep]\nxpd_db = 10\npattern_file = {bad}\n",
                              encoding="utf-8")
        argv = ["cdf", "--config", str(config), "--out", str(tmp_path / "out")]
    assert _exit_code(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(bad) in err and "not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("site", ["cdf-config", "cdf-pattern-file", "xpd-from-pattern"])
def test_utf8_bom_input_file_reads_as_plain(tmp_path, capsys, site):
    # the pattern opens with a comment line, which a BOM kept in the text
    # would turn into the header
    pattern = "# measured cuts\n" + PATTERN_TEXT
    config = ("[users]\nu = path_loss_db=80 mean_aod_deg=0\n"
              "[sweep]\nxpd_db = 10\nmodels = i, iii\ntrials_per_user = 20\n")
    outputs = []
    for kind, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(bom + (config if site == "cdf-config" else pattern).encode())
        if site == "xpd-from-pattern":
            argv = ["xpd-from-pattern", "--file", str(path), "--azimuth", "0"]
        else:
            if site == "cdf-pattern-file":
                pattern_path, path = path, tmp_path / f"{kind}.ini"
                path.write_text(config + f"pattern_file = {pattern_path}\n")
            argv = ["cdf", "--config", str(path), "--out", str(tmp_path / kind)]
        assert _exit_code(argv) == EXIT_OK
        out = capsys.readouterr().out
        if site != "xpd-from-pattern":
            out = {p.name: p.read_bytes() for p in (tmp_path / kind).iterdir()
                   if p.name != "run_metadata.txt"}
        outputs.append(out)
    assert outputs[0] and outputs[0] == outputs[1]


def test_cdf_end_to_end(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text(
        """
        [generator]
        count = 3
        distance_m = 5, 40

        [sweep]
        xpd_db = 10, 20
        models = ii
        trials_per_user = 25

        [seed]
        value = 7
        """
    )
    out_dir = tmp_path / "out"
    assert main(["cdf", "--config", str(config), "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["cdf_ii_10.csv", "cdf_ii_20.csv", "run_metadata.txt", "table1.csv"]
    cdf_lines = (out_dir / "cdf_ii_10.csv").read_text().strip().splitlines()
    assert cdf_lines[0] == "throughput_bps,cum_prob"
    assert len(cdf_lines) == 1 + 3 * 25
    meta = (out_dir / "run_metadata.txt").read_text()
    assert "seed=7" in meta and "version=" in meta


def test_cdf_models_override(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text(
        "[users]\nu = path_loss_db=78 mean_aod_deg=5\n"
        "[sweep]\nxpd_db = 10\nmodels = ii\ntrials_per_user = 10\n"
    )
    out_dir = tmp_path / "out"
    assert main(["cdf", "--config", str(config), "--models", "i,iv",
                 "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    names = {p.name for p in out_dir.iterdir()}
    assert "cdf_i_10.csv" in names and "cdf_iv_10.csv" in names
    assert "cdf_ii_10.csv" not in names


def test_cdf_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text("[users]\nu = path_loss_db=80 mean_aod_deg=0\n"
                      "[link]\noverhead = 2.0\n")
    assert main(["cdf", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_cdf_unknown_model_override_exits_2(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text("[users]\nu = path_loss_db=80 mean_aod_deg=0\n")
    assert main(["cdf", "--config", str(config), "--models", "vii",
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_cdf_missing_config_exits_2(tmp_path):
    assert main(["cdf", "--config", str(tmp_path / "none.ini"),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


USER = "[users]\nu = path_loss_db=80 mean_aod_deg=0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--xpd", "10,40"],
        ["table1", "--spread", "30"],
        ["cdf", "--config", "{config}", "--out", "{out}"],
    ],
    ids=["table1-xpd-40", "table1-spread-30", "cdf-table-spread-30"],
)
def test_unreachable_table_spacing_is_an_empty_field(tmp_path, capsys, argv):
    # at 40 dB (26 deg spread) and at 30 dB (30 deg spread) the target
    # |rho| lies below the first local minimum of the Laplacian |rho|
    config = tmp_path / "scenario.ini"
    config.write_text(USER + "[sweep]\nxpd_db = 30\nmodels = i\ntrials_per_user = 2\n"
                      "table_spread_deg = 30\n")
    argv = [a.format(config=config, out=tmp_path / "out") for a in argv]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    table = (tmp_path / "out" / "table1.csv").read_text() if argv[0] == "cdf" else captured.out
    rows = [dict(zip(table.splitlines()[0].split(","), line.split(",")))
            for line in table.splitlines()[1:]]
    unreachable = [r for r in rows if float(r["xpd_db"]) >= 30]
    assert unreachable and all(r["d_lap_lambda"] == "" for r in unreachable)
    assert all(float(r["d_lap_lambda"]) > 0 for r in rows if float(r["xpd_db"]) < 30)


@pytest.mark.parametrize("command", ["cdf", "xpd-from-pattern"])
@pytest.mark.parametrize(
    "row",
    ["0, nan, -14.0, 5.0, -11.0", "0, 5000, -14.0, 5.0, -11.0",
     "0, 6.0, -14.0, 5.0, -5000", "nan, 6.0, -14.0, 5.0, -11.0"],
    ids=["gain-nan", "gain-huge", "gain-tiny", "azimuth-nan"],
)
def test_bad_pattern_values_exit_2(tmp_path, capsys, command, row):
    lines = PATTERN_TEXT.splitlines()
    lines[19] = row  # the 0 deg sample, line 20 of the file
    pattern = tmp_path / "pattern.csv"
    pattern.write_text("\n".join(lines) + "\n")
    config = tmp_path / "scenario.ini"
    config.write_text(USER + f"[sweep]\nxpd_db = 10\nmodels = i\npattern_file = {pattern}\n")
    argv = {"cdf": ["cdf", "--config", str(config), "--out", str(tmp_path / "o")],
            "xpd-from-pattern": ["xpd-from-pattern", "--file", str(pattern),
                                 "--azimuth", "0"]}[command]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: line 20: ") and err.count("\n") == 1


def _pattern_argv(tmp_path, rows, command):
    """Write ``rows`` as a pattern file; argv running ``command`` on it."""
    pattern = tmp_path / "pattern.csv"
    pattern.write_text(PATTERN_HEADER + "".join(f"{row}\n" for row in rows))
    config = tmp_path / "scenario.ini"
    config.write_text(USER + "[sweep]\nxpd_db = 10\nmodels = i, ii\ntrials_per_user = 20\n"
                      f"pattern_file = {pattern}\n")
    return {"cdf": ["cdf", "--config", str(config), "--out", str(tmp_path / "o")],
            "xpd-from-pattern": ["xpd-from-pattern", "--file", str(pattern),
                                 "--azimuth", "0"]}[command]


@pytest.mark.parametrize("command", ["cdf", "xpd-from-pattern"])
def test_third_degree_six_decimal_pattern_runs(tmp_path, capsys, command):
    rows = [f"{-180.0 + i / 3.0:.6f}, 6.0, -14.0, 5.0, -11.0" for i in range(1080)]
    assert main(_pattern_argv(tmp_path, rows, command)) == EXIT_OK
    out = capsys.readouterr().out
    if command == "cdf":
        assert (tmp_path / "o" / "cdf_ii_10.csv").stat().st_size > 0
    else:
        assert "port1_xpd_db=20.0000" in out and "port2_xpd_db=16.0000" in out


@pytest.mark.parametrize("command", ["cdf", "xpd-from-pattern"])
def test_pattern_rows_spanning_a_turn_exit_2(tmp_path, capsys, command):
    # 0..640 deg at 80 deg steps would wrap onto a uniform 40 deg grid
    rows = [f"{i * 80}, 6.0, -14.0, 5.0, -11.0" for i in range(9)]
    assert main(_pattern_argv(tmp_path, rows, command)) == EXIT_CONFIG
    assert "less than one turn" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        USER + "[sweep]\nxpd_db = nan\n",
        USER + "[sweep]\nxpd_db = 10, inf\n",
        USER + "[sweep]\nxpd_db = 1e6\n",
        "[generator]\nsector_center_deg = 170\n",
        "[users]\nu = path_loss_db=80 mean_aod_deg=200\n",
        "[users]\nu = path_loss_db=80 mean_aod_deg=0 spread_deg=inf\n",
        USER + "[sweep]\ntable_spread_deg = inf\n",
        "[generator]\ndistance_m = 3, inf\n",
        USER + "[link]\nbandwidth_hz = inf\n",
        USER + "[link]\nbandwidth_hz = 1e308\n",
        USER + "[link]\nnoise_density_dbm_hz = nan\n",
        USER + "[link]\nbandwidth_hz = 1e290\nnoise_density_dbm_hz = 300\n",
        "[users]\nu = path_loss_db=80 mean_aod_deg=0 spread_deg=1\n",
        "[users]\nu = path_loss_db=80 mean_aod_deg=0 spread_deg=400\n",
        "[generator]\naod_spread_deg = 0.1, 20\n",
        "[generator]\naod_spread_deg = 20, 1e20\n",
        USER + "[sweep]\ntable_spread_deg = 1.4\n",
        USER + "[sweep]\ntable_spread_deg = 361\n",
        USER + "[sweep]\nxpd_db = 10, 10.0\n",
        USER + "[sweep]\nxpd_db = 10.0000001, 10.0000002\n",
        USER + "[sweep]\nmodels = ii, ii\n",
        USER + "[sweep]\nmodels =\n",
        USER + "[sweep]\nxpd_db = 0, -0\n",
        "[users]\nu = path_loss_db=80 mean_aod_deg=0 path_loss_db=120\n",
        "[users]\nu = path_loss_db=80 mean_aod_deg=0 taps=1.0\n",
        "[generator]\ntap_powers = 1.0\n",
        "[generator]\ncount = 1000000000000000\n",
        USER + "[sweep]\ntrials_per_user = 1000000000000000\n",
    ],
    ids=["xpd-nan", "xpd-inf", "xpd-huge", "sector-center", "mean-aod", "spread-inf",
         "table-spread-inf", "distance-inf", "bandwidth-inf", "throughput-cap-overflow",
         "noise-density-nan", "noise-power-overflow", "spread-narrow", "spread-wide",
         "generator-spread-narrow", "generator-spread-wide", "table-spread-narrow",
         "table-spread-wide", "xpd-repeated", "xpd-same-label", "models-repeated", "models-empty",
         "xpd-signed-zero", "user-key-repeated", "user-taps", "generator-tap-powers",
         "generator-count-huge", "trials-huge"],
)
def test_cdf_non_finite_or_out_of_range_numbers_exit_2(tmp_path, capsys, text):
    config = tmp_path / "scenario.ini"
    config.write_text(text)
    code = main(["cdf", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--xpd", "nan"],
        ["table1", "--xpd", "1e6"],
        ["table1", "--spread", "0"],
        ["spacing", "--rho", "0.5", "--dist", "lap", "--spread", "0"],
        ["spacing", "--rho", "0.5", "--dist", "lap", "--mean-aod", "200"],
        ["xpd-from-pattern", "--file", "{pattern}", "--azimuth", "nan"],
        ["table1", "--spread", "1.4"],
        ["table1", "--spread", "400"],
        ["spacing", "--rho", "0.5", "--dist", "lap", "--spread", "1e-300"],
        ["spacing", "--rho", "0.5", "--dist", "lap", "--spread", "1e20"],
        ["table1", "--xpd", ","],
        ["table1", "--xpd", "10,10.0"],
        ["table1", "--xpd", "10.0000001,10.0000002"],
        ["table1", "--xpd", "0,-0"],
        ["cdf", "--config", "{config}", "--models", ",", "--out", "{out}"],
        ["cdf", "--config", "{config}", "--models", "ii,ii", "--out", "{out}"],
    ],
    ids=["xpd-nan", "xpd-huge", "table-spread-0", "spacing-spread-0", "mean-aod",
         "azimuth-nan", "table-spread-narrow", "table-spread-wide", "spacing-spread-tiny",
         "spacing-spread-huge", "xpd-empty", "xpd-repeated", "xpd-same-label",
         "xpd-signed-zero", "models-empty", "models-repeated"],
)
def test_invalid_cli_numbers_exit_2(pattern_file, capsys, argv):
    config = pattern_file.parent / "scenario.ini"
    config.write_text(USER + "[sweep]\nxpd_db = 10\ntrials_per_user = 2\n")
    paths = {"{pattern}": pattern_file, "{config}": config, "{out}": pattern_file.parent / "o"}
    argv = [str(paths.get(a, a)) for a in argv]
    assert _exit_code(argv) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_table1_checks_xpd_labels_before_their_range(capsys):
    assert main(["table1", "--xpd", "400,400"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: --xpd: need at least one XPD value and no two that are equal "
        "or print alike, got ['400', '400']\n"
    )


def test_scenario_keys_and_user_ids_are_case_sensitive(tmp_path, capsys):
    near = "Near = path_loss_db=72 mean_aod_deg=-15\n"
    assert [u.user_id for u in parse_scenario("[users]\n" + near).users] == ["Near"]
    both = parse_scenario("[users]\n" + near + near.lower())
    assert [u.user_id for u in both.users] == ["Near", "near"]
    config = tmp_path / "scenario.ini"
    config.write_text("[generator]\nCOUNT = 3\n")
    assert main(["cdf", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: unknown key 'COUNT' in [generator]\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("error, code", [
    (ValueError("bad value"), EXIT_CONFIG),
    (ConfigError("bad config"), EXIT_CONFIG),
    (PatternFormatError("line 3: bad row"), EXIT_CONFIG),
    (FileNotFoundError("no such file"), EXIT_CONFIG),
    (NoSolutionError("no crossing"), EXIT_NUMERIC),
    (InvalidCorrelationError("off-diagonal magnitude exceeds 1"), EXIT_NUMERIC),
    (RankDeficientError("singular channel"), EXIT_NUMERIC),
    (np.linalg.LinAlgError("singular matrix"), EXIT_NUMERIC),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_exit_code_follows_the_exception_type(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "table1", fail)
    assert main(["table1"]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(error) in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dualpolsim" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fuzzing: every input ends in a documented exit code, never an exception
# ---------------------------------------------------------------------------

# mostly values inside every field's range, so that runs get past the
# parser, then finite values out of range and non-finite ones
UNUSUAL = st.one_of(
    st.floats(-400.0, 400.0),
    st.sampled_from([0.0, -1.0, 180.0, 361.0, 1e-300, 1e300, -1e300, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def numbers(lo=0.5, hi=30.0):
    """Three values in four from [lo, hi], the rest unusual."""
    return st.integers(0, 3).flatmap(lambda k: UNUSUAL if k == 0 else st.floats(lo, hi))


NUMBERS = numbers()
FUZZ_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _numbers(draw, lo=1, hi=2, ascending=False):
    values = draw(st.lists(NUMBERS, min_size=lo, max_size=hi))
    return ", ".join(repr(v) for v in (sorted(values) if ascending else values))


@st.composite
def scenario_texts(draw):
    lines = []
    if draw(st.booleans()):
        lines.append("[users]")
        for k in range(draw(st.integers(1, 3))):
            tokens = [f"path_loss_db={draw(NUMBERS)!r}", f"mean_aod_deg={draw(NUMBERS)!r}"]
            if draw(st.booleans()):
                tokens.append(f"spread_deg={draw(NUMBERS)!r}")
            lines.append(f"u{k} = " + " ".join(tokens))
    else:
        lines += ["[generator]", f"count = {draw(st.integers(1, 3))}"]
        for key in ("distance_m", "aod_spread_deg"):
            if draw(st.booleans()):
                lines.append(f"{key} = {_numbers(draw, ascending=True)}")
        for key in ("path_loss_exponent", "reference_loss_db", "sector_deg",
                    "sector_center_deg"):
            if draw(st.booleans()):
                lines.append(f"{key} = {draw(NUMBERS)!r}")
    models = draw(st.lists(st.sampled_from(["i", "ii", "iii", "iv"]),
                           min_size=1, max_size=4, unique=True))
    lines += [
        "[sweep]",
        f"xpd_db = {_numbers(draw)}",
        f"models = {', '.join(models)}",
        f"trials_per_user = {draw(st.integers(1, 3))}",
    ]
    if draw(st.booleans()):
        lines.append(f"table_spread_deg = {draw(NUMBERS)!r}")
    if draw(st.booleans()):
        lines.append("pattern_file = {pattern}")
        lines.append(f"pattern_reference_deg = {draw(NUMBERS)!r}")
    link_keys = {"bandwidth_hz": NUMBERS, "overhead": numbers(0.0, 0.9),
                 "max_spectral_efficiency": NUMBERS, "noise_density_dbm_hz": NUMBERS}
    present = [k for k in link_keys if draw(st.booleans())]
    if present:
        lines.append("[link]")
        lines += [f"{key} = {draw(link_keys[key])!r}" for key in present]
    return "\n".join(lines) + "\n"


@FUZZ_SETTINGS
@given(text=scenario_texts())
def test_fuzz_cdf_scenarios_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        pattern = tmp / "pattern.csv"
        pattern.write_text(PATTERN_TEXT)
        config = tmp / "scenario.ini"
        config.write_text(text.replace("{pattern}", str(pattern)))
        code = _exit_code(["cdf", "--config", str(config), "--out", str(tmp / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)


@st.composite
def cli_args(draw):
    command = draw(st.sampled_from(["table1", "spacing", "xpd-from-pattern"]))
    if command == "table1":
        return ["table1", f"--xpd={_numbers(draw, 1, 3)}", f"--spread={draw(NUMBERS)!r}"]
    if command == "spacing":
        return ["spacing", f"--rho={draw(numbers(0.01, 1.0))!r}",
                f"--dist={draw(st.sampled_from(['iso', 'lap']))}",
                f"--spread={draw(NUMBERS)!r}", f"--mean-aod={draw(NUMBERS)!r}"]
    return ["xpd-from-pattern", "--file", "{pattern}", f"--azimuth={draw(NUMBERS)!r}"]


@FUZZ_SETTINGS
@given(argv=cli_args())
def test_fuzz_cli_arguments_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        pattern = Path(tmp) / "pattern.csv"
        pattern.write_text(PATTERN_TEXT)
        code = _exit_code([a.replace("{pattern}", str(pattern)) for a in argv])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
