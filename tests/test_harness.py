"""Tests for scenario parsing, user generation, runs and reports."""

import dataclasses
import hashlib
import io
import math
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from dualpolsim import cli, harness
from dualpolsim.chanmodel import PropagationGains
from dualpolsim.correlation import (
    AodDistribution, CorrelationMatrix, NoSolutionError, dualpole_corr_exact, spatial_corr,
)
from dualpolsim.harness import (
    ConfigError,
    GeneratorBounds,
    Scenario,
    UserSpec,
    format_table_csv,
    generate_users,
    parse_scenario,
    run,
    write_report,
)
from dualpolsim.link import LinkParams, UserChannel, cdf, draw_gram, evaluate_user
from dualpolsim.pattern import PatternFormatError, gain_at, scale_to_xpd, xpd_at

TABLE_RHO = (0.9432, 0.8545, 0.5750, 0.1980, 0.0632)
TABLE_D_ISO = (0.076, 0.124, 0.220, 0.326, 0.364)

MINIMAL_CONFIG = """
[users]
office = path_loss_db=80 mean_aod_deg=10
"""

SMALL_RUN_CONFIG = """
[users]
near = path_loss_db=72 mean_aod_deg=-15 spread_deg=24
far = path_loss_db=88 mean_aod_deg=30 spread_deg=28

[sweep]
xpd_db = 3, 5, 10, 20, 30
models = ii
trials_per_user = 40

[seed]
value = 1337
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_config_applies_defaults():
    scenario = parse_scenario(MINIMAL_CONFIG)
    assert scenario.link.effective_bandwidth == 8.4e6
    assert scenario.link.overhead_fraction == 0.2522
    assert scenario.link.max_spectral_efficiency == 5.0
    assert scenario.link.noise_density_dbm_hz == -174.0
    assert scenario.xpd_sweep_db == (3.0, 5.0, 10.0, 20.0, 30.0)
    assert scenario.models == ("ii",)
    assert scenario.trials_per_user == 1000
    assert scenario.seed == 0
    assert len(scenario.users) == 1
    assert scenario.users[0].mean_aod == pytest.approx(math.radians(10.0))


def test_parse_full_generator_config():
    scenario = parse_scenario(
        """
        [generator]
        count = 7
        distance_m = 4, 50
        path_loss_exponent = 2.8
        reference_loss_db = 40
        sector_deg = 90
        aod_spread_deg = 20, 40

        [sweep]
        xpd_db = 10
        models = i, iv
        trials_per_user = 5

        [link]
        bandwidth_hz = 9e6
        overhead = 0.3

        [seed]
        value = 9
        """
    )
    assert len(scenario.users) == 7
    assert scenario.models == ("i", "iv")
    assert scenario.link.effective_bandwidth == 9e6
    assert scenario.link.overhead_fraction == 0.3
    assert all(math.radians(20) <= u.aod_spread <= math.radians(40)
               for u in scenario.users)


def test_parse_generator_is_seed_deterministic():
    cfg = "[generator]\ncount = 5\n\n[seed]\nvalue = 33\n"
    a = parse_scenario(cfg)
    b = parse_scenario(cfg)
    assert a.users == b.users


def test_parse_rejects_out_of_range_overhead():
    with pytest.raises(ConfigError, match=r"\[link\]"):
        parse_scenario(MINIMAL_CONFIG + "[link]\noverhead = 1.2\n")


def test_parse_rejects_unknown_key_and_section():
    with pytest.raises(ConfigError, match="unknown key 'bandwith_hz'"):
        parse_scenario(MINIMAL_CONFIG + "[link]\nbandwith_hz = 1e6\n")
    with pytest.raises(ConfigError, match=r"unknown section \[linc\]"):
        parse_scenario(MINIMAL_CONFIG + "[linc]\nbandwidth_hz = 1e6\n")
    with pytest.raises(ConfigError, match=r"unknown key 'taps' in \[users\] u"):
        parse_scenario("[users]\nu = path_loss_db=80 mean_aod_deg=0 taps=1.0\n")
    with pytest.raises(ConfigError, match=r"unknown key 'tap_powers' in \[generator\]"):
        parse_scenario("[generator]\ncount = 2\ntap_powers = 1.0\n")
    # configparser would otherwise read [DEFAULT] keys into every section
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        parse_scenario("[DEFAULT]\ncount = 3\n[generator]\n")
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        parse_scenario("[DEFAULT]\nxpd_db = 3\n" + MINIMAL_CONFIG)
    # a key line before any section header
    with pytest.raises(ConfigError, match=r"^malformed config: File contains no section headers"):
        parse_scenario("count = 2\n[generator]\n")


def test_parse_rejects_duplicate_user_id():
    with pytest.raises(ConfigError, match="duplicate key 'office'"):
        parse_scenario(
            "[users]\n"
            "office = path_loss_db=80 mean_aod_deg=10\n"
            "office = path_loss_db=85 mean_aod_deg=20\n"
        )


def test_parse_requires_users_or_generator():
    with pytest.raises(ConfigError, match="missing required section"):
        parse_scenario("[sweep]\nxpd_db = 10\n")
    with pytest.raises(ConfigError, match=r"^\[users\] section is empty$"):
        parse_scenario("[users]\n[sweep]\nxpd_db = 10\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_scenario(
            "[users]\nu = path_loss_db=80 mean_aod_deg=0\n[generator]\ncount = 2\n"
        )


def test_parse_rejects_bad_user_lines():
    with pytest.raises(ConfigError, match="unknown key 'speed_deg'"):
        parse_scenario("[users]\nu = path_loss_db=80 mean_aod_deg=0 speed_deg=26\n")
    with pytest.raises(ConfigError, match="missing required keys"):
        parse_scenario("[users]\nu = mean_aod_deg=0\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_scenario("[users]\nu = 80 0\n")
    with pytest.raises(ConfigError, match=r"^\[users\] user u: path loss"):
        parse_scenario("[users]\nu = path_loss_db=-5 mean_aod_deg=0\n")
    with pytest.raises(ConfigError, match=r"duplicate key 'path_loss_db' in \[users\] a"):
        parse_scenario("[users]\na = path_loss_db=80 mean_aod_deg=0 path_loss_db=120\n")


def test_parse_rejects_bad_numbers():
    with pytest.raises(ConfigError, match=r"\[sweep\] trials_per_user"):
        parse_scenario(MINIMAL_CONFIG + "[sweep]\ntrials_per_user = ten\n")
    with pytest.raises(ConfigError, match="unknown models"):
        parse_scenario(MINIMAL_CONFIG + "[sweep]\nmodels = ii, v\n")
    for text, message in [
        ("[generator]\nsector_deg = 400\n",
         "[generator]: sector width must lie in [0, 360] degrees"),
        (MINIMAL_CONFIG + "[sweep]\nxpd_db = 3, abc\n",
         "[sweep] xpd_db: expected numbers, got '3, abc'"),
        (MINIMAL_CONFIG + "[sweep]\npattern_reference_deg = 1 2\n",
         "[sweep] pattern_reference_deg: expected a single number, got '1 2'"),
        ("[generator]\ndistance_m = 1 2 3\n",
         "[generator] distance_m: expected one or two numbers, got '1 2 3'"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_scenario(text)


@pytest.mark.parametrize(
    "text, product",
    [("[generator]\ncount = 100001\n", "100001 x 1000"),
     ("[generator]\ncount = 2\n[sweep]\ntrials_per_user = 50000001\n", "2 x 50000001")],
)
def test_parse_rejects_oversized_population_before_drawing_it(monkeypatch, text, product):
    def no_draw(*args):
        raise AssertionError("generate_users ran")

    monkeypatch.setattr(harness, "generate_users", no_draw)
    prefix = r"\[generator\] count: users x trials_per_user = "
    with pytest.raises(ConfigError, match=prefix + product):
        parse_scenario(text)


# each config is one unit over one size limit: 10001 users, 101 cells,
# and 53 x 754717 = 4e7 + 1 pooled samples
OVER_LIMIT_CONFIGS = {
    "users": ("[generator]\ncount = 10001\n[sweep]\ntrials_per_user = 1\n",
              r"10001 users exceed the 10000 a scenario may hold"),
    "cells": ("[generator]\ncount = 1\n[sweep]\nmodels = i\ntrials_per_user = 1\n"
              f"xpd_db = {', '.join(map(str, range(101)))}\n",
              r"models x XPDs = 101 cells exceed the 100 a run may pool"),
    "run-samples": ("[generator]\ncount = 1\n[sweep]\nmodels = i\ntrials_per_user = 754717\n"
                    f"xpd_db = {', '.join(map(str, range(53)))}\n",
                    r"users x trials_per_user x cells = 1 x 754717 x 53 exceeds the 4e\+07 "
                    r"samples a run may pool"),
}


@pytest.mark.parametrize("limit", OVER_LIMIT_CONFIGS)
def test_run_over_a_size_limit_exits_2_before_drawing_a_user(monkeypatch, tmp_path, capsys, limit):
    def no_draw(*args):
        raise AssertionError("generate_users ran")

    text, message = OVER_LIMIT_CONFIGS[limit]
    monkeypatch.setattr(harness, "generate_users", no_draw)
    message = r"\[generator\] count: " + message
    with pytest.raises(ConfigError, match="^" + message):
        parse_scenario(text)
    config = tmp_path / "scenario.ini"
    config.write_text(text)
    assert cli.main(["cdf", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert re.match("error: " + message, err) and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_scenario_in_code_is_held_to_the_size_limits():
    user = UserSpec("u", 80.0, 0.0, 0.4)
    # at each limit, then one over it
    Scenario(users=(user,), models=("i",), xpd_sweep_db=tuple(range(100)))
    with pytest.raises(ValueError, match="101 cells exceed the 100"):
        Scenario(users=(user,), models=("i",), xpd_sweep_db=tuple(range(101)))
    Scenario(users=(user,), models=("i", "ii"), xpd_sweep_db=(1.0, 2.0, 3.0, 4.0),
             trials_per_user=harness.MAX_CDF_SAMPLES)
    with pytest.raises(ValueError, match="1 x 754717 x 53 exceeds the 4e\\+07 samples"):
        Scenario(users=(user,), models=("i",), xpd_sweep_db=tuple(range(53)),
                 trials_per_user=754717)
    users = tuple(UserSpec(f"u{k}", 80.0, 0.0, 0.4) for k in range(harness.MAX_USERS + 1))
    Scenario(users=users[:-1], trials_per_user=1)
    with pytest.raises(ValueError, match="10001 users exceed the 10000"):
        Scenario(users=users, trials_per_user=1)
    # numpy integers are kept as Python ints: in int64, 3 x 2**62 would wrap negative
    with pytest.raises(ValueError, match="samples a pooled CDF may hold"):
        Scenario(users=users[:3], trials_per_user=np.int64(2**62))
    scenario = Scenario(users=users[:3], trials_per_user=np.int64(5), seed=np.uint64(7))
    assert type(scenario.trials_per_user) is int and type(scenario.seed) is int


def test_parse_seed_is_exact_64_bit():
    big = 2**63 - 1  # would lose precision through a float
    scenario = parse_scenario(MINIMAL_CONFIG + f"[seed]\nvalue = {big}\n")
    assert scenario.seed == big
    with pytest.raises(ConfigError, match=">= 0"):
        parse_scenario(MINIMAL_CONFIG + "[seed]\nvalue = -5\n")
    with pytest.raises(ConfigError, match=r"^\[seed\] value"):
        parse_scenario("[generator]\ncount = 2\n[seed]\nvalue = -5\n")


def test_readme_scenario_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_scenario(block)


# ---------------------------------------------------------------------------
# user generation
# ---------------------------------------------------------------------------


def test_generate_users_deterministic():
    bounds = GeneratorBounds()
    a = generate_users(802, np.random.default_rng(4), bounds)
    b = generate_users(802, np.random.default_rng(4), bounds)
    assert a == b
    assert len({u.user_id for u in a}) == 802


def test_generate_users_zero_width_sector():
    bounds = GeneratorBounds(sector_deg=0.0, sector_center_deg=25.0)
    users = generate_users(20, np.random.default_rng(5), bounds)
    assert all(u.mean_aod == pytest.approx(math.radians(25.0)) for u in users)


def test_generate_users_path_loss_envelope():
    bounds = GeneratorBounds(distance_m=(3.0, 60.0), path_loss_exponent=3.0,
                             reference_loss_db=41.0)
    lo = 41.0 + 30.0 * math.log10(3.0)
    hi = 41.0 + 30.0 * math.log10(60.0)
    users = generate_users(500, np.random.default_rng(6), bounds)
    assert all(lo <= u.path_loss_db <= hi for u in users)


def test_generate_users_degenerate_bounds():
    with pytest.raises(ValueError, match="degenerate distance"):
        GeneratorBounds(distance_m=(10.0, 5.0))
    with pytest.raises(ValueError, match="degenerate distance"):
        GeneratorBounds(distance_m=(0.0, 5.0))
    with pytest.raises(ValueError, match="degenerate AoD spread"):
        GeneratorBounds(aod_spread_deg=(30.0, 20.0))
    with pytest.raises(ValueError):
        generate_users(0, np.random.default_rng(0), GeneratorBounds())


# ---------------------------------------------------------------------------
# runs and reports
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    return run(parse_scenario(SMALL_RUN_CONFIG))


def test_run_table_reproduces_reference_values(small_report):
    rows = small_report.table_rows
    assert [r.xpd_db for r in rows] == [3.0, 5.0, 10.0, 20.0, 30.0]
    for row, rho, d_iso in zip(rows, TABLE_RHO, TABLE_D_ISO):
        assert abs(row.rho_exact - rho) < 5e-4
        assert abs(row.d_iso_lambda - d_iso) <= 0.002


def test_run_table_is_self_consistent(small_report):
    iso = AodDistribution.isotropic()
    for row in small_report.table_rows:
        lap = AodDistribution.laplacian(0.0, math.radians(row.spread_deg))
        assert abs(abs(spatial_corr(row.d_iso_lambda, iso)) - row.rho_exact) < 1e-4
        assert abs(abs(spatial_corr(row.d_lap_lambda, lap)) - row.rho_exact) < 1e-4


def test_run_cdf_series_shape(small_report):
    assert set(small_report.cdf_series) == {("ii", x) for x in (3, 5, 10, 20, 30)}
    series = small_report.cdf_series[("ii", 10.0)]
    assert len(series) == 2 * 40  # users x trials
    probs = [p for _, p in series]
    assert probs[-1] == 1.0
    assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_run_outputs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_report(run(parse_scenario(SMALL_RUN_CONFIG)), out_a)
    write_report(run(parse_scenario(SMALL_RUN_CONFIG)), out_b)
    names = sorted(p.name for p in out_a.iterdir())
    assert "table1.csv" in names and "cdf_ii_10.csv" in names
    for name in names:
        if name == "run_metadata.txt":
            continue  # carries a timestamp by design
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_is_independent_of_user_listing_order(tmp_path):
    swapped = SMALL_RUN_CONFIG.replace(
        "near = path_loss_db=72 mean_aod_deg=-15 spread_deg=24\n"
        "far = path_loss_db=88 mean_aod_deg=30 spread_deg=28",
        "far = path_loss_db=88 mean_aod_deg=30 spread_deg=28\n"
        "near = path_loss_db=72 mean_aod_deg=-15 spread_deg=24",
    )
    assert swapped != SMALL_RUN_CONFIG
    a = run(parse_scenario(SMALL_RUN_CONFIG))
    b = run(parse_scenario(swapped))
    for key in a.cdf_series:
        assert np.array_equal(a.cdf_series[key], b.cdf_series[key])


SUBSET_CONFIG = """
[users]
a = path_loss_db=72 mean_aod_deg=-15 spread_deg=24
b = path_loss_db=80 mean_aod_deg=5
c = path_loss_db=88 mean_aod_deg=30 spread_deg=28

[sweep]
xpd_db = 3, 10, 20
models = i, ii, iii, iv
trials_per_user = 30

[seed]
value = 77
"""


@pytest.fixture(scope="module")
def full_sweep():
    scenario = parse_scenario(SUBSET_CONFIG)
    return scenario, run(scenario)


def test_one_xpd_run_reproduces_the_full_sweep(full_sweep):
    scenario, full = full_sweep
    cell = run(dataclasses.replace(scenario, xpd_sweep_db=(10.0,)))
    assert cell.cdf_series.keys() == {(m, 10.0) for m in scenario.models}
    for key, series in cell.cdf_series.items():
        # bytes, not values, so that -0.0 and 0.0 still differ
        assert series.tobytes() == full.cdf_series[key].tobytes()


def test_reordered_models_reproduce_the_full_sweep(full_sweep):
    scenario, full = full_sweep
    reordered = run(dataclasses.replace(scenario, models=("iv", "ii", "iii", "i")))
    assert reordered.cdf_series.keys() == full.cdf_series.keys()
    for key, series in reordered.cdf_series.items():
        assert np.array_equal(series, full.cdf_series[key])


def test_run_without_a_user_pools_a_subset_of_the_full_sweep(full_sweep):
    scenario, full = full_sweep
    users = tuple(u for u in scenario.users if u.user_id != "b")
    fewer = run(dataclasses.replace(scenario, users=users))
    assert fewer.cdf_series.keys() == full.cdf_series.keys()
    for key, series in fewer.cdf_series.items():
        # the full run's samples are this run's plus user b's, as a multiset
        left = Counter(full.cdf_series[key][:, 0].tolist())
        left.subtract(series[:, 0].tolist())
        assert min(left.values()) >= 0
        assert left.total() == scenario.trials_per_user


def test_models_of_a_pattern_free_run_share_their_draws(full_sweep):
    # without a pattern, models ii and iv both have Sigma = R / loss, so
    # common random numbers make their samples equal, not just alike
    scenario, full = full_sweep
    for xpd_db in scenario.xpd_sweep_db:
        assert full.cdf_series[("ii", xpd_db)].tobytes() == \
            full.cdf_series[("iv", xpd_db)].tobytes()


def test_equal_cdfs_of_a_pattern_free_run_are_one_read_only_array(full_sweep):
    # every user's equivalent spacing exists here, so model iii has
    # model iv's Sigma, and model iv model ii's
    scenario, full = full_sweep
    for xpd_db in scenario.xpd_sweep_db:
        shared = full.cdf_series[("ii", xpd_db)]
        assert full.cdf_series[("iii", xpd_db)] is shared
        assert full.cdf_series[("iv", xpd_db)] is shared
        assert not shared.flags.writeable
        assert full.cdf_series[("i", xpd_db)] is not shared
        assert not full.cdf_series[("i", xpd_db)].flags.writeable


def test_same_bits_compares_bit_patterns_not_values():
    a = np.array([1.0, 0.0, np.nan])
    signed_zero, payload = a.copy(), a.copy()
    signed_zero[1] = -0.0
    payload.view(np.int64)[2] += 1  # a NaN of another payload
    assert harness._same_bits(a, a.copy())
    for other in (signed_zero, payload):
        assert np.array_equal(a, other, equal_nan=True)
        assert not harness._same_bits(a, other)
    assert not harness._same_bits(a, a[:2])


def test_a_model_equal_to_another_for_its_first_user_only_keeps_its_own_cdf(monkeypatch):
    # equality is decided on whole columns: model iv matches model ii for
    # u0000 and not for u0001, so it must not take ii's CDF
    scenario = parse_scenario(
        """
        [generator]
        count = 2

        [sweep]
        xpd_db = 10
        models = ii, iv
        trials_per_user = 40
        """
    )
    real = harness.evaluate_user
    returned = []  # model iv's samples, users in id order

    def iv_as_ii_for_u0000(channel, model, draw, n, params):
        if model != "iv":
            return real(channel, model, draw, n, params)
        result = real(channel, "ii", draw, n, params)
        if returned:  # u0001
            result = dataclasses.replace(result, throughput=result.throughput + 1.0)
        returned.append(result.throughput)
        return result

    monkeypatch.setattr(harness, "evaluate_user", iv_as_ii_for_u0000)
    report = run(scenario)
    ii, iv = report.cdf_series[("ii", 10.0)], report.cdf_series[("iv", 10.0)]
    assert len(returned) == 2
    assert iv is not ii
    assert not ii.flags.writeable and not iv.flags.writeable
    alone = run(dataclasses.replace(scenario, models=("ii",)))
    assert ii.tobytes() == alone.cdf_series[("ii", 10.0)].tobytes()
    assert iv.tobytes() == cdf(np.concatenate(returned)).tobytes()
    assert not np.array_equal(ii, iv)


def test_run_peak_memory_per_pooled_sample_with_one_trial_per_user():
    # one preallocated column per cell: a task adds no array of its own
    # to what the run holds
    scenario = parse_scenario(
        """
        [generator]
        count = 2000

        [sweep]
        xpd_db = 3, 5, 10, 20, 30
        models = i, ii
        trials_per_user = 1
        """
    )
    samples = 2000 * 1 * 10
    run(scenario)  # fills the caches of the summary table's spacing solve, untraced
    tracemalloc.start()
    try:
        report = run(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.cdf_series) == 10
    assert peak / samples < 40.0


def test_run_peak_memory_per_pooled_sample():
    # each XPD's columns are freed once its CDFs exist, and model iv, a
    # twin of ii without a pattern, takes ii's CDF instead of sorting its own
    scenario = parse_scenario(
        """
        [generator]
        count = 50

        [sweep]
        xpd_db = 10
        models = i, ii, iv
        trials_per_user = 1000
        """
    )
    samples = 50 * 1000 * 3
    tracemalloc.start()
    try:
        report = run(scenario)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.cdf_series) == 3
    assert peak / samples < 27.0
    assert held / samples < 14.0


def test_zero_db_run_gives_only_zero_samples():
    # at 0 dB every model's channel is exactly rank one, model iii's too:
    # its spacing is 0 and rho(0) = 1 for every AoD law
    scenario = parse_scenario(
        """
        [generator]
        count = 30
        aod_spread_deg = 1.5, 360

        [sweep]
        xpd_db = 0
        models = i, ii, iii, iv
        trials_per_user = 100
        """
    )
    report = run(scenario)
    for key, series in report.cdf_series.items():
        assert np.all(series[:, 0] == 0.0), key
    # one law, one array: every model's key holds the first model's object
    assert len({id(series) for series in report.cdf_series.values()}) == 1


KEY_CONFIG = """
[users]
solo = path_loss_db=80 mean_aod_deg=20

[sweep]
xpd_db = 3, 10
models = i, ii, iii, iv
trials_per_user = 25

[seed]
value = 2024
"""


def test_run_draws_each_user_at_its_hashed_jump_along_the_run_stream():
    scenario = parse_scenario(KEY_CONFIG)
    report = run(scenario)
    (user,) = scenario.users
    jump = int.from_bytes(hashlib.blake2b(b"solo", digest_size=16).digest(), "little")
    assert report.cdf_series.keys() == {(m, x) for m in ("i", "ii", "iii", "iv")
                                        for x in (3.0, 10.0)}
    for (model, xpd_db), series in report.cdf_series.items():
        stream = np.random.PCG64DXSM(np.random.SeedSequence([2024, harness.RUN_TAG]))
        stream.advance(jump)
        result = evaluate_user(_user_channel(user, xpd_db, None), model,
                               np.random.Generator(stream), 25, scenario.link)
        assert series.tobytes() == cdf(result.throughput).tobytes(), (model, xpd_db)


def test_user_spec_stream_key_is_the_blake2b_hash_of_its_id():
    ids = ("solo", "Solo", "SOLO", "u0000", "u0001", "bürö")
    keys = []
    for user_id in ids:
        user = UserSpec(user_id, path_loss_db=80.0, mean_aod=0.0)
        digest = hashlib.blake2b(user_id.encode(), digest_size=16).digest()
        assert user.stream_key == int.from_bytes(digest, "little"), user_id
        keys.append(user.stream_key)
    assert len(set(keys)) == len(ids)  # case variants are distinct ids, with distinct substreams
    moved = dataclasses.replace(user, user_id="solo")
    assert moved.stream_key == keys[0]


def test_run_attaches_context_to_module_errors():
    # at 30 deg spread the first local minimum of |rho| (~0.156) sits
    # above the 30 dB coefficient, so model iii cannot resolve a
    # spacing for this user; the run must name the failing task
    cfg = """
    [users]
    wide = path_loss_db=80 mean_aod_deg=0 spread_deg=30

    [sweep]
    xpd_db = 30
    models = iii
    trials_per_user = 5
    """
    scenario = parse_scenario(cfg)
    with pytest.raises(ValueError, match="user wide, xpd 30 dB, model iii"):
        run(scenario)


def test_run_names_the_first_failing_user_at_its_first_failing_xpd():
    # model iii finds no spacing for zed and amy at 30 dB only, and for
    # bob at 20 dB too: users go in id order, each through the whole sweep
    cfg = """
    [users]
    zed = path_loss_db=80 mean_aod_deg=0 spread_deg=30
    bob = path_loss_db=80 mean_aod_deg=20 spread_deg=60
    amy = path_loss_db=80 mean_aod_deg=20 spread_deg=30

    [sweep]
    xpd_db = 20, 30
    models = ii, iii
    trials_per_user = 5
    """
    with pytest.raises(ValueError, match="^user amy, xpd 30 dB, model iii: "):
        run(parse_scenario(cfg))


def _readme_scenario(xpd_db):
    """The README's generator scenario with models i-iv at the XPDs ``xpd_db``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    config = re.search(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S).group(1)
    return dataclasses.replace(parse_scenario(config), models=("i", "ii", "iii", "iv"),
                               xpd_sweep_db=xpd_db)


def test_model_iii_of_the_readme_population_shares_model_iv_cdf():
    # every user's equivalent spacing exists at 3-20 dB, and |rho_sp| = |rho_xpd|
    # there, so model iii's Sigma, column and CDF are model iv's
    report = run(_readme_scenario((3.0, 5.0, 10.0, 20.0)))
    for xpd_db in (3.0, 5.0, 10.0, 20.0):
        assert report.cdf_series[("iii", xpd_db)] is report.cdf_series[("iv", xpd_db)]


def test_model_iii_of_the_readme_population_still_fails_at_30_db():
    # user u0002 asks for a |rho| below the first minimum of its |rho_sp|
    with pytest.raises(NoSolutionError) as info:
        run(_readme_scenario((30.0,)))
    assert str(info.value) == (
        "user u0002, xpd 30 dB, model iii: target |rho| = 0.0631824 is below the minimum "
        "achievable 0.072274 on [0, 3.8] wavelengths; achievable range is [0.072274, 1]")


def test_run_with_pattern_file(tmp_path):
    header = "azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi\n"
    rows = "".join(
        f"{-180 + i * 10}, 6.0, -14.0, 6.0, -14.0\n" for i in range(36)
    )
    pattern_path = tmp_path / "pattern.csv"
    pattern_path.write_text(header + rows)
    cfg = f"""
    [users]
    u = path_loss_db=80 mean_aod_deg=15

    [sweep]
    xpd_db = 10, 20
    models = i, ii
    trials_per_user = 30
    pattern_file = {pattern_path}

    [seed]
    value = 2
    """
    report = run(parse_scenario(cfg))
    assert ("i", 10.0) in report.cdf_series
    # flat pattern: rescaled XPD holds at every azimuth, so both models run
    assert len(report.cdf_series[("ii", 20.0)]) == 30


def test_run_with_directional_pattern(tmp_path):
    # non-flat cuts with different co/cross shapes and asymmetric ports:
    # per-user gains and XPD are read off the rescaled pattern at the
    # user's azimuth, so they vary across users
    header = "azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi\n"
    lines = []
    for i in range(72):
        deg = -180.0 + i * 5.0
        rad = math.radians(deg)
        co1 = 6.0 + 7.0 * math.cos(rad / 2.0) ** 2
        cross1 = -14.0 + 4.0 * math.cos(rad)
        lines.append(f"{deg}, {co1:.4f}, {cross1:.4f}, {co1 - 1.0:.4f}, {cross1 + 0.9:.4f}\n")
    pattern_path = tmp_path / "directional.csv"
    pattern_path.write_text(header + "".join(lines))
    def mean_throughput(mean_aod_deg):
        cfg = f"""
        [users]
        u = path_loss_db=82 mean_aod_deg={mean_aod_deg}

        [sweep]
        xpd_db = 15
        models = i, ii
        trials_per_user = 200
        pattern_file = {pattern_path}

        [seed]
        value = 4
        """
        report = run(parse_scenario(cfg))
        samples = np.array([v for v, _ in report.cdf_series[("i", 15.0)]])
        assert samples.shape == (200,)
        return samples.mean()

    # the off-boresight user sees lower gain, hence lower throughput
    assert mean_throughput(0) > mean_throughput(120)


def _pattern_scenario(tmp_path):
    header = "azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi\n"
    rows = "".join(f"{-180 + i * 10}, 6.0, -14.0, 5.0, -11.0\n" for i in range(36))
    pattern_path = tmp_path / "pattern.csv"
    pattern_path.write_text(header + rows)
    return parse_scenario(f"""
    [users]
    a = path_loss_db=80 mean_aod_deg=15
    b = path_loss_db=75 mean_aod_deg=-40
    c = path_loss_db=90 mean_aod_deg=60

    [sweep]
    xpd_db = 10, 20
    models = i, ii
    trials_per_user = 4
    pattern_file = {pattern_path}
    """)


def _user_channel(user, xpd_db, gains):
    """One (user, XPD) pair's channel, built alone: the per-user oracle of :func:`run`.

    ``gains`` is the ``(co, cross)`` pair of :func:`gain_at` at the
    user's mean AoD of the pattern rescaled to ``xpd_db``, or None for
    the pattern-free model.
    """
    loss = 10.0 ** (user.path_loss_db / 10.0)
    if gains is None:
        chi = 10.0 ** (xpd_db / 10.0)
        propagation, xpd = PropagationGains.from_xpd(chi, path_loss=loss), (chi, chi)
    else:
        (co0, co1), (cross0, cross1) = gains
        propagation = PropagationGains(alpha=(co0 / loss, co1 / loss),
                                       beta=(cross1 / loss, cross0 / loss))
        xpd = (co0 / cross0, co1 / cross1)
    return UserChannel(gains=propagation, xpd=xpd, omni_gain=1.0 / loss, aod=user.aod)


def test_run_rescales_pattern_once_per_xpd(tmp_path, monkeypatch):
    calls = {"scale_to_xpd": 0, "gain_at": 0, "evaluate_user": 0}
    for name in calls:
        original = getattr(harness, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(harness, name, counted)
    run(_pattern_scenario(tmp_path))
    # 2 XPD values, 3 users in one draw block, 2 models: one rescale per
    # XPD, one gain lookup per (XPD, block) and one evaluation per task
    assert calls == {"scale_to_xpd": 2, "gain_at": 2, "evaluate_user": 2 * 3 * 2}


def test_pattern_run_keeps_models_ii_and_iv_apart(tmp_path):
    scenario = dataclasses.replace(_pattern_scenario(tmp_path), models=("i", "ii", "iv"))
    report = run(scenario)
    for xpd_db in scenario.xpd_sweep_db:
        assert report.cdf_series[("ii", xpd_db)] is not report.cdf_series[("iv", xpd_db)]


def test_user_channel_matches_pattern_lookup(tmp_path):
    # the block's channel terms, as run plans them, against one scalar
    # lookup per user, bit for bit
    scenario = _pattern_scenario(tmp_path)
    loss = np.array([10.0 ** (user.path_loss_db / 10.0) for user in scenario.users])
    aods = np.array([user.mean_aod for user in scenario.users])
    for xpd_db in scenario.xpd_sweep_db:
        scaled = scale_to_xpd(scenario.pattern, xpd_db,
                              math.radians(scenario.pattern_reference_deg))
        (alpha, beta, omni, rho), first, message = harness._channel_terms(
            loss, 1.0 / loss, xpd_db, gain_at(scaled, aods))
        assert (first, message) == (len(scenario.users), "")
        for k, user in enumerate(scenario.users):
            co, cross = gain_at(scaled, user.mean_aod)
            assert np.array_equal([alpha[0][k], alpha[1][k]], co / loss[k])
            assert np.array_equal([beta[0][k], beta[1][k]], cross[::-1] / loss[k])
            assert omni[k] == 1.0 / loss[k]
            xpd = dualpole_corr_exact(*xpd_at(scaled, user.mean_aod))
            assert rho[k] == abs(xpd.coefficient)


def test_run_attaches_context_to_channel_errors(tmp_path, monkeypatch):
    def broken_gain(*args):
        raise ValueError("gain lookup failed")

    monkeypatch.setattr(harness, "gain_at", broken_gain)
    with pytest.raises(ValueError, match="^xpd 10 dB: gain lookup failed"):
        run(_pattern_scenario(tmp_path))


def test_run_over_several_draw_blocks_matches_the_per_user_path(tmp_path):
    # 700 users x 20 trials fill four draw blocks; each user is rebuilt
    # alone: its draw at its hashed jump, its gains from one scalar lookup
    header = "azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi\n"
    rows = "".join(
        f"{deg}, {6.0 + 5.0 * math.cos(math.radians(deg)):.4f}, {-14.0 + math.sin(deg):.4f}, "
        f"{5.0 + 4.0 * math.cos(math.radians(deg - 20)):.4f}, {-11.0 + math.cos(deg):.4f}\n"
        for deg in range(-180, 180, 2)
    )
    pattern_path = tmp_path / "pattern.csv"
    pattern_path.write_text(header + rows)
    scenario = parse_scenario(f"""
    [generator]
    count = 700

    [sweep]
    xpd_db = 3, 30
    models = i, ii
    trials_per_user = 20
    pattern_file = {pattern_path}
    pattern_reference_deg = 10

    [seed]
    value = 77
    """)
    assert len(scenario.users) * 20 > 3 * harness._DRAW_BLOCK_TRIALS
    report = run(scenario)
    samples = {key: [] for key in report.cdf_series}
    for user in sorted(scenario.users, key=lambda u: u.user_id):
        stream = np.random.PCG64DXSM(np.random.SeedSequence([77, harness.RUN_TAG]))
        stream.advance(user.stream_key)
        draw = draw_gram(np.random.Generator(stream), 20)
        for xpd_db in scenario.xpd_sweep_db:
            scaled = scale_to_xpd(scenario.pattern, xpd_db, math.radians(10.0))
            channel = _user_channel(user, xpd_db, gain_at(scaled, user.mean_aod))
            for model in scenario.models:
                result = evaluate_user(channel, model, draw, 20, scenario.link)
                samples[(model, xpd_db)].append(result.throughput)
    for key, series in report.cdf_series.items():
        assert series.tobytes() == cdf(np.concatenate(samples[key])).tobytes(), key


def _faulty_gain_at(scenario, faults):
    """:func:`gain_at` with ``faults[(user id, XPD)]``, (cut, port, value) edits, made to its gains."""
    order = [user.user_id for user in sorted(scenario.users, key=lambda user: user.user_id)]
    calls = iter(scenario.xpd_sweep_db)  # one lookup per XPD, in sweep order, for one block

    def lookup(pattern, aods):
        gains = gain_at(pattern, aods)
        xpd_db = next(calls)
        for (user_id, at), edits in faults.items():
            for cut, port, value in edits if at == xpd_db else ():
                gains[cut][port, order.index(user_id)] = value
        return gains

    return lookup


def test_run_names_the_user_whose_channel_fails(tmp_path, monkeypatch):
    scenario = _pattern_scenario(tmp_path)
    faults = {("b", 10.0): [(0, 1, math.nan)]}  # port 2's co gain
    monkeypatch.setattr(harness, "gain_at", _faulty_gain_at(scenario, faults))
    with pytest.raises(ValueError, match="^user b, xpd 10 dB: gains must be finite$"):
        run(scenario)


# (cut, port, value) edits of one user's (co, cross) gains, one per check
# that PropagationGains and dualpole_corr_exact make, in their order
GAIN_FAULTS = {
    "nan": [(0, 1, math.nan)],
    "inf": [(1, 0, math.inf)],
    "negative": [(1, 0, -1.0)],
    "no-power": [(0, 0, 0.0), (1, 1, 0.0)],
    "zero-xpd-port-1": [(0, 0, 0.0)],
    "zero-xpd-port-2": [(0, 1, 0.0)],
}


@pytest.mark.parametrize("fault", GAIN_FAULTS)
def test_run_channel_checks_give_the_per_user_channels_message(tmp_path, monkeypatch, fault):
    # checked as arrays, a fault fails as that user's own channel would:
    # same check first, same message; faults at (b, 10 dB) and (a, 20 dB)
    # name user a, the first user in id order
    scenario = _pattern_scenario(tmp_path)
    faults = {("b", 10.0): GAIN_FAULTS[fault], ("a", 20.0): GAIN_FAULTS[fault]}
    monkeypatch.setattr(harness, "gain_at", _faulty_gain_at(scenario, faults))
    with pytest.raises(ValueError) as caught:
        run(scenario)
    (a,) = [user for user in scenario.users if user.user_id == "a"]
    gains = [g.tolist() for g in gain_at(scale_to_xpd(scenario.pattern, 20.0, 0.0), a.mean_aod)]
    for cut, port, value in GAIN_FAULTS[fault]:
        gains[cut][port] = value
    with pytest.raises(ValueError) as alone:
        _user_channel(a, 20.0, gains)
    assert str(caught.value) == f"user a, xpd 20 dB: {alone.value}"


@pytest.mark.parametrize("pattern", [False, True], ids=["pattern-free", "pattern"])
def test_run_builds_no_per_user_channel_objects(tmp_path, monkeypatch, pattern):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"run built a {type(self).__name__}")

    for cls in (PropagationGains, UserChannel, CorrelationMatrix):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    scenario = _pattern_scenario(tmp_path) if pattern else parse_scenario(SMALL_RUN_CONFIG)
    scenario = dataclasses.replace(scenario, models=("i", "ii", "iii", "iv"),
                                   xpd_sweep_db=(3.0, 10.0))
    report = run(scenario)
    assert len(report.cdf_series) == 8
    with pytest.raises(AssertionError, match="^run built a PropagationGains$"):  # the patch holds
        _user_channel(scenario.users[0], 10.0, None)


def test_parse_missing_pattern_file_is_config_error():
    cfg = MINIMAL_CONFIG + "[sweep]\npattern_file = /does/not/exist.csv\n"
    with pytest.raises(ConfigError, match="pattern file"):
        parse_scenario(cfg)


def test_parse_malformed_pattern_file_names_its_line(tmp_path):
    pattern_path = tmp_path / "pattern.csv"
    pattern_path.write_text("azimuth_deg, co1, x1, co2, x2\n0, 6.0, -14.0, 5.0\n")
    cfg = MINIMAL_CONFIG + f"[sweep]\npattern_file = {pattern_path}\n"
    with pytest.raises(PatternFormatError, match="^line 2: "):
        parse_scenario(cfg)


def test_run_reads_no_file(tmp_path):
    scenario = _pattern_scenario(tmp_path)
    first = run(scenario)
    (tmp_path / "pattern.csv").unlink()
    second = run(scenario)
    assert first.cdf_series.keys() == second.cdf_series.keys()
    for key, series in first.cdf_series.items():
        assert series.tobytes() == second.cdf_series[key].tobytes(), key


def _per_row_cdf_csv(series):
    """The per-row formatter that write_report's CDF files must match byte for byte."""
    out = io.StringIO()
    out.write("throughput_bps,cum_prob\n")
    for value, prob in series:
        out.write(f"{value:.3f},{prob:.10g}\n")
    return out.getvalue()


def _written_cdf_csv(series, out_dir):
    """Text of the CDF file write_report writes for ``series`` alone."""
    report = harness.RunReport(table_rows=(), cdf_series={("i", 3.0): series}, metadata={})
    write_report(report, out_dir)
    return (out_dir / "cdf_i_3.csv").read_text()


def test_format_cdf_csv_matches_per_row_formatter(small_report, tmp_path):
    cap = LinkParams().max_throughput()
    edges = (0.0, cap, 1.0 / 3.0, 1e-5)
    series = np.array([(v, p) for v in edges for p in edges])
    assert _written_cdf_csv(series, tmp_path) == _per_row_cdf_csv(series)
    run_series = small_report.cdf_series[("ii", 10.0)]
    assert _written_cdf_csv(run_series, tmp_path) == _per_row_cdf_csv(run_series)


def _cdf_rows(values, probs=None):
    values = np.asarray(values, dtype=float)
    if probs is None:
        probs = np.arange(1, values.size + 1) / values.size
    return np.column_stack((values, probs))


def _writer_cases():
    cap = LinkParams().max_throughput()
    block = harness._CDF_BLOCK_ROWS
    # a run of 7 capped values spans rows block - 3 .. block + 3
    across = np.concatenate((np.linspace(0.0, 0.9 * cap, block - 3), np.full(7, cap),
                             np.linspace(1.1 * cap, 2.0 * cap, 5)))
    shuffled = np.random.default_rng(7).permutation(np.repeat([0.0, 1.0 / 3.0, cap, 2.5], 9))
    negative_nan = np.copysign(np.nan, -1.0)
    rng = np.random.default_rng(9)
    return {
        "signed-zero": _cdf_rows([-0.0, 0.0, 0.0, -0.0, -0.0], [-0.0, 0.0, 0.2, 0.2, 1.0]),
        "non-finite": _cdf_rows([np.nan, negative_nan, np.nan, np.inf, np.inf, -np.inf],
                                [0.1, np.nan, -np.inf, np.inf, 0.5, 1.0]),
        "empty": np.empty((0, 2)),
        "one-row": _cdf_rows([cap]),
        "across-blocks": _cdf_rows(across),
        "unsorted": _cdf_rows(shuffled),
        "probs-not-i-over-n": _cdf_rows(np.sort(shuffled),
                                        np.random.default_rng(8).uniform(0.0, 1.0, 36)),
        # odd multiples of 1/16 are exact ties at the third decimal: x.0625
        # rounds down to the even x.062, x.1875 up to the even x.188
        "ties": _cdf_rows(np.concatenate((np.arange(1, 64, 2), np.arange(2**30 - 63, 2**30, 2),
                                          rng.integers(2**3, 2**29, 500) * 2 + 1)) / 16),
        "exact-path-bounds": _cdf_rows([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                                        np.nextafter(2.0**26, 0.0), 2.0**26, cap, 0.0]),
        "fallback-values": _cdf_rows([5e-324, -0.0, np.nan, negative_nan, np.inf, -np.inf,
                                      1e300, -1e300, -cap, 0.5, 2.0**53 + 2.0, 1.0]),
        # widest "%.10g" texts: a sign and a three-digit exponent
        "probs-not-i-over-n-exact": _cdf_rows(
            np.sort(rng.uniform(1.0, cap, 50)),
            rng.uniform(-1.0, 1.0, 50) * 10.0 ** rng.integers(-300, 300, 50)),
        **{f"rows-{n}": _cdf_rows(np.sort(rng.uniform(0.0, 1.5 * cap, n)).clip(max=cap))
           for n in (block - 1, block, block + 1, 8191, 8192, 8193)},
    }


@pytest.mark.parametrize("case", list(_writer_cases()))
def test_format_cdf_csv_edge_series_match_per_row_formatter(case, tmp_path):
    series = _writer_cases()[case]
    assert _written_cdf_csv(series, tmp_path) == _per_row_cdf_csv(series)


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.floats(1.0, 2.0**26),
                         st.integers(16, 2**30).map(lambda k: k / 16)),
                min_size=1, max_size=40))
def test_cdf_rows_of_finite_values_match_per_row_formatter(values):
    series = _cdf_rows(values)
    out = io.BytesIO()
    harness._write_cdf(out, series, [])
    assert out.getvalue() == _per_row_cdf_csv(series).encode()


def test_write_report_cdf_files_match_per_row_formatter(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    cap = LinkParams().max_throughput()

    def capped(n):
        return np.minimum(rng.uniform(0.0, 1.5 * cap, n), cap)

    series = {
        ("i", 3.0): cdf(capped(5)),
        ("ii", 3.0): cdf(capped(7)),
        ("iv", 3.0): cdf(capped(5)),  # shares the probability column of ("i", 3.0)
        ("i", 10.0): cdf(capped(7)),
        ("ii", 10.0): _cdf_rows(np.sort(capped(5)), rng.uniform(0.0, 1.0, 5)),
        ("iv", 10.0): _writer_cases()["across-blocks"],
    }
    report = harness.RunReport(table_rows=(), cdf_series=series, metadata={})
    prob_columns = []
    prob_field = harness._prob_field

    def counting(probs):
        prob_columns.append(probs.size)
        return prob_field(probs)

    monkeypatch.setattr(harness, "_prob_field", counting)
    write_report(report, tmp_path)
    for (model, xpd_db), rows in series.items():
        written = (tmp_path / f"cdf_{model}_{xpd_db:g}.csv").read_bytes()
        assert written == _per_row_cdf_csv(rows).encode(), (model, xpd_db)
    # one probability column per distinct column: 5/5, 7/7, random 5 and the long one
    assert sorted(prob_columns) == sorted([5, 7, 5, len(series[("iv", 10.0)])])


def test_write_report_formats_a_shared_series_once(tmp_path, monkeypatch):
    series = cdf(np.random.default_rng(4).uniform(0.0, 1e7, 9))
    value_columns = []
    write_cdf = harness._write_cdf

    def counting(f, rows, prob_fields):
        value_columns.append(len(rows))
        return write_cdf(f, rows, prob_fields)

    monkeypatch.setattr(harness, "_write_cdf", counting)
    expected = _per_row_cdf_csv(series).encode()
    for copies, out_dir in (((series, series), "shared"), ((series, series.copy()), "equal")):
        value_columns.clear()
        report = harness.RunReport(table_rows=(), metadata={},
                                   cdf_series=dict(zip((("ii", 3.0), ("iv", 3.0)), copies)))
        write_report(report, tmp_path / out_dir)
        for model in ("ii", "iv"):
            assert (tmp_path / out_dir / f"cdf_{model}_3.csv").read_bytes() == expected
        # one value column per distinct series object
        assert value_columns == [9] * len({id(c) for c in copies}), out_dir


def test_write_report_rejects_keys_that_print_to_one_file(tmp_path):
    report = harness.RunReport(table_rows=(), metadata={}, cdf_series={
        ("ii", 1.0): cdf([1.0, 2.0]), ("ii", 1.0000001): cdf([3.0])})
    with pytest.raises(ValueError, match=r"both print to cdf_ii_1\.csv"):
        write_report(report, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _i_over_n_texts(n, start, stop):
    """The "%.10g" texts of rows start..stop of the n-row i/N column, formatting only those rows."""
    rows = np.zeros((stop - start, 19), np.uint8)
    harness._prob_rows(rows, np.arange(start + 1, stop + 1) / n, start, n)
    return [row[row != 0].tobytes().decode() for row in rows]


def _fallback_ranks(n):
    """Ranks whose i/N text is left to "%.10g": below 1e-4, or near a tie once scaled."""
    # the first rank of each decade [10**e, 10**(e + 1)) of i/N, e = -4 to 0
    firsts = [-(-n // 10**k) for k in (4, 3, 2, 1, 0)] + [n + 1]
    fallback = [np.arange(1, firsts[0])]
    for e, (first, end) in enumerate(zip(firsts, firsts[1:]), start=-4):
        ranks = np.arange(first, end)
        r = ranks * 10 ** (9 - e)
        r %= n
        r *= 2
        r -= n
        fallback.append(ranks[np.abs(r, out=r) <= n // 10**5 + 2])
    return np.concatenate(fallback)


@settings(max_examples=8, deadline=None)
@given(st.integers(5001, harness.MAX_CDF_SAMPLES), st.lists(st.floats(0.0, 1.0), max_size=6))
@example(harness.MAX_CDF_SAMPLES, [0.0, 0.5, 1.0])
@example(harness.MAX_CDF_SAMPLES - 1, [])  # its double i/N rounds otherwise at 2r - N = -1
@example(3 * 2**20, [0.25])  # exact ties: %.10g rounds them to even
@example(123457, [])
def test_i_over_n_texts_of_large_columns_match_per_row_formatter(n, fractions):
    # rows at each decade's start, at the end, around sampled ranks and
    # every row left to the fallback, each formatted alone
    firsts = [-(-n // 10**k) for k in range(5)]
    windows = [(max(i - 3, 0), min(i + 3, n)) for i in firsts]
    windows += [(start, min(start + 64, n)) for start in (int(f * (n - 1)) for f in fractions)]
    windows += [(i - 1, i) for i in _fallback_ranks(n).tolist()]
    for start, stop in windows:
        expected = [f"{i / n:.10g}" for i in range(start + 1, stop + 1)]
        assert _i_over_n_texts(n, start, stop) == expected, (n, start, stop)


@given(st.integers(0, 5000))
@example(0)
@example(1)
@example(harness._CDF_BLOCK_ROWS + 1)
def test_i_over_n_texts_of_small_columns_match_per_row_formatter(n):
    probs = np.arange(1, n + 1) / n
    field = harness._prob_field(probs)
    assert field.shape == (n, 19)
    assert field[field != 0].tobytes() == "".join(f",{p:.10g}\n" for p in probs.tolist()).encode()


@settings(max_examples=25)
@given(st.integers(1, 5000), st.data())
def test_a_flipped_bit_takes_the_fallback(n, data):
    probs = np.arange(1, n + 1) / n
    row = data.draw(st.integers(0, n - 1))
    probs.view(np.uint64)[row] ^= np.uint64(1) << np.uint64(data.draw(st.integers(0, 63)))
    formatted = []
    percent_texts = harness._percent_texts

    def recording(fmt, column):
        formatted.extend(column.view(np.int64).tolist())
        return percent_texts(fmt, column)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_percent_texts", recording)
        field = harness._prob_field(probs)
    assert field[field != 0].tobytes() == "".join(f",{p:.10g}\n" for p in probs.tolist()).encode()
    assert probs.view(np.int64)[row] in formatted


@pytest.mark.parametrize("n, left", [(10_000, 0), (20_000, 1), (10**6, 99)])
def test_cdf_probabilities_reach_percent_formatting_only_at_the_fallback_ranks(n, left):
    # 1e4 and 2e4 rows are the benchmark workloads' CDF sizes; were cdf's
    # probabilities not the doubles i/N, every row would take "%.10g"
    formatted = []
    percent_texts = harness._percent_texts

    def recording(fmt, column):
        if fmt == "%.10g":
            formatted.extend(column.tolist())
        return percent_texts(fmt, column)

    series = cdf(np.random.default_rng(6).uniform(1.0, 2.0, n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_percent_texts", recording)
        harness._write_cdf(io.BytesIO(), series, [])
    ranks = _fallback_ranks(n)
    assert ranks.size == left
    assert formatted == (ranks / n).tolist()


def test_digit_tables_match_python_formatting_entry_by_entry():
    def texts(table):
        return [text.decode() for text in table.view("S4").tolist()]

    lead, tail, decimals = harness._digit_tables()
    numbers = range(10000)
    assert texts(lead) == [""] + [f"{i:d}" for i in numbers[1:]]
    # "%04d" of i less its trailing zeros is repr(i / 10**4) after its "0."
    trimmed = [""] + [repr(i / 10**4)[2:] for i in numbers[1:]]
    assert texts(tail) == ([f"{i:d}" for i in numbers] + [f"{i:04d}" for i in numbers]
                           + trimmed)
    assert texts(decimals) == [f".{i:03d}" for i in range(1000)]


def test_write_report_peak_memory_per_row_of_an_i_over_n_cdf(tmp_path):
    # README "Scenario files": about 20 B per row, 19 B of probability
    # text plus one block of rows (2 B per row here), and the text tables
    rows = 200_000
    series = cdf(np.random.default_rng(5).uniform(0.0, LinkParams().max_throughput(), rows))
    report = harness.RunReport(table_rows=(), cdf_series={("ii", 10.0): series}, metadata={})
    write_report(dataclasses.replace(report, cdf_series={("ii", 10.0): series[:10]}), tmp_path)
    assert sum(table.nbytes for table in harness._digit_tables()) < 256 * 1024
    tracemalloc.start()
    try:
        write_report(report, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / rows < 21.5


def test_format_table_csv_header():
    text = format_table_csv([])
    assert text.splitlines()[0] == (
        "xpd_db,rho_exact,rho_approx,d_iso_lambda,d_lap_lambda,spread_deg"
    )


def test_scenario_validation():
    user = UserSpec("u", 80.0, 0.0, 0.4)
    with pytest.raises(ValueError):
        Scenario(users=())
    with pytest.raises(ValueError):
        Scenario(users=(user,), xpd_sweep_db=())
    with pytest.raises(ValueError):
        Scenario(users=(user,), models=("x",))
    with pytest.raises(ValueError, match="at least one model"):
        Scenario(users=(user,), models=())
    with pytest.raises(ValueError, match="twice"):
        Scenario(users=(user,), models=("ii", "ii"))
    for xpd in ((10.0000001, 10.0000002), (0.0, -0.0)):
        with pytest.raises(ValueError, match="print alike"):
            Scenario(users=(user,), xpd_sweep_db=xpd)
    with pytest.raises(ValueError):
        Scenario(users=(user,), trials_per_user=0)
    # the ranges a scenario file is held to hold for a Scenario built in code
    with pytest.raises(ValueError, match="300 dB"):
        Scenario(users=(user,), xpd_sweep_db=(1e6,))
    with pytest.raises(ValueError, match=">= 0"):
        Scenario(users=(user,), seed=-1)
    with pytest.raises(ValueError, match="table_spread_deg"):
        Scenario(users=(user,), table_spread_deg=1.4)
    with pytest.raises(ValueError, match="pattern_reference_deg"):
        Scenario(users=(user,), pattern_reference_deg=math.nan)
    with pytest.raises(ValueError, match="unique"):
        Scenario(users=(user, UserSpec("u", 90.0, 1.0, 0.4)))
    Scenario(users=(user,), trials_per_user=harness.MAX_CDF_SAMPLES)
    over = harness.MAX_CDF_SAMPLES + 1
    with pytest.raises(ValueError, match=f"users x trials_per_user = 1 x {over} exceeds"):
        Scenario(users=(user,), trials_per_user=over)


def test_user_spec_validation():
    with pytest.raises(ValueError):
        UserSpec("u", -5.0, 0.0, 0.4)
    with pytest.raises(ValueError, match=r"^user u: AoD spread must lie in \[1.5, 360\] degrees$"):
        UserSpec("u", 80.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^user u: mean AoD must lie in \[-180, 180\] degrees$"):
        UserSpec("u", 80.0, 4.0, 0.4)
    # the AoD law is built once, and stays out of repr and equality
    user = UserSpec("u", 80.0, 0.3, 0.4)
    assert user.aod == AodDistribution.laplacian(0.3, 0.4)
    assert repr(user) == "UserSpec(user_id='u', path_loss_db=80.0, mean_aod=0.3, aod_spread=0.4)"
    assert user == UserSpec("u", 80.0, 0.3, 0.4)


def test_wrong_types_are_rejected_when_built_not_in_run():
    # otherwise each surfaces inside run, as an AttributeError or a TypeError
    with pytest.raises(ValueError, match="user id must be a str, got int"):
        UserSpec(5, 72.0, 0.1)
    user = UserSpec("u", 80.0, 0.0, 0.4)
    for name, value in (("trials_per_user", 10.5), ("trials_per_user", 2.0), ("seed", 1.5)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
            Scenario(users=(user,), **{name: value})
    # numpy integers are integers, and run as the ints they equal
    got = run(Scenario(users=(user,), xpd_sweep_db=(10.0,), seed=np.int64(3),
                       trials_per_user=np.int32(2)))
    want = run(Scenario(users=(user,), xpd_sweep_db=(10.0,), seed=3, trials_per_user=2))
    assert np.array_equal(got.cdf_series[("ii", 10.0)], want.cdf_series[("ii", 10.0)])
