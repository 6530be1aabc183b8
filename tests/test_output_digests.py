"""Output files of fixed scenarios, pinned by SHA-256 digests.

The table ``output_digests.json`` beside this file holds one digest per
scenario and file. A change that keeps every output byte-identical
passes unchanged; a change that alters samples or texts on purpose
regenerates the table and lists each changed digest:

    PYTHONPATH=src python tests/test_output_digests.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from dualpolsim import cli, harness

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("output_digests.json")

# the scenario of the CI console step
TWO_USERS = """
[users]
near = path_loss_db=72 mean_aod_deg=-15
far = path_loss_db=88 mean_aod_deg=30

[sweep]
xpd_db = 3, 10
models = i, ii, iii, iv
trials_per_user = 50
"""

# at 0 dB every model's channel is exactly singular
ZERO_XPD = """
[generator]
count = 100
aod_spread_deg = 1.5, 360

[sweep]
xpd_db = 0
models = i, ii, iii, iv
trials_per_user = 100
"""

PATTERN = """
[generator]
count = 5

[sweep]
xpd_db = 3, 30
models = i, ii, iv
trials_per_user = 50
pattern_file = {path}
pattern_reference_deg = 20
"""


def _readme_config() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S).group(1)


def _pattern_text() -> str:
    """A 10-degree pattern whose gains vary with azimuth, in exact decimal texts."""
    rows = "".join(
        f"{-180 + 10 * i}, {6 - i % 7}, {-14 + i % 5}, {5 - i % 4}, {-11 - i % 3}.5\n"
        for i in range(36)
    )
    return "azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi\n" + rows


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digests(scenario: harness.Scenario, work: Path) -> dict:
    """Digest of each file ``write_report`` writes, ``run_metadata.txt`` without its timestamp."""
    out = work / "out"
    paths = harness.write_report(harness.run(scenario), out)
    digests = {}
    for path in paths:
        data = path.read_bytes()
        if path.name == "run_metadata.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"created_utc="))
        digests[path.name] = _digest(data)
    return digests


def _readme(models, xpd_db=None):
    def scenario(work):
        base = harness.parse_scenario(_readme_config())
        return dataclasses.replace(base, models=models,
                                   xpd_sweep_db=xpd_db or base.xpd_sweep_db)
    return scenario


def _pattern_scenario(work: Path) -> harness.Scenario:
    path = work / "pattern.csv"
    path.write_text(_pattern_text())
    return harness.parse_scenario(PATTERN.format(path=path))


def _cli_outputs(work: Path) -> dict:
    """The default ``table1`` CSV and the one-line error of the README run of models i-iv."""
    table = work / "table1.csv"
    config = work / "readme.ini"
    config.write_text(_readme_config())
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        table_status = cli.main(["table1", "--out", str(table)])
        status = cli.main(["cdf", "--config", str(config), "--models", "i,ii,iii,iv",
                           "--out", str(work / "out")])
    error = stderr.getvalue()
    assert (table_status, status, error.count("\n")) == (0, cli.EXIT_NUMERIC, 1), error
    return {"table1.csv": _digest(table.read_bytes()), "stderr": _digest(error.encode())}


SCENARIOS = {
    "readme-i-ii-iv": _readme(("i", "ii", "iv")),
    "readme-i-iv-3-20-db": _readme(("i", "ii", "iii", "iv"), (3.0, 5.0, 10.0, 20.0)),
    "two-users": lambda work: harness.parse_scenario(TWO_USERS),
    "zero-xpd": lambda work: harness.parse_scenario(ZERO_XPD),
    "pattern": _pattern_scenario,
}


def _digests(name: str, work: Path) -> dict:
    if name == "cli":
        return _cli_outputs(work)
    return _report_digests(SCENARIOS[name](work), work)


NAMES = [*SCENARIOS, "cli"]


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_committed_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name]
    assert _digests(name, tmp_path) == expected


def test_digest_table_covers_every_scenario():
    assert list(json.loads(DIGESTS.read_text())) == NAMES


def regenerate() -> None:
    """Rewrite the committed table from the outputs of the code as it stands."""
    table = {}
    for name in NAMES:
        with tempfile.TemporaryDirectory() as work:
            table[name] = _digests(name, Path(work))
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
