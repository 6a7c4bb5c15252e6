"""Golden digests of every file the CLI writes on two synthetic fixtures.

Each command runs through `cli.main` on two `synth` fixtures, and the test
asserts the exact set of files it writes and the SHA-256 of each. The three
tables `synth` writes for the fixtures are pinned too, so a change to their
text that loads to the same values still shows. A change meant to keep
behaviour must keep every digest. The curves go through
numpy's least-squares solver, so another numpy or BLAS build may move their
last digits.
"""

import contextlib
import hashlib
import io

import pytest

from repmarket import dynamics
from repmarket.cli import main
from repmarket.synth import synthetic_dataset, write_fixture

from helpers import load_strict_json

# fixture name -> (seed, markets); both with 10 traders
FIXTURES = {"seed3": (3, 12), "seed11": (11, 40)}

COMMANDS = {
    "report": ["report"],
    "evaluate": ["evaluate"],
    "dynamics": ["dynamics"],
    "aggregate": ["aggregate"],
    "pvalue": ["pvalue"],
    "replay": ["replay"],
    "replay_simulated": ["replay", "--mode", "simulated", "--liquidity-b", "50"],
    "validate": ["validate"],
}

# the tables write_fixture writes for each fixture
FIXTURE_GOLDEN = {
    "seed3": {
        "outcomes.csv":
            "442baf1caeb484605a1bb286568c41c1012926bd1101b64bb74aeb250905ecd1",
        "surveys.csv":
            "0361fcd30f9e11169c94cd79708065912934d88ea6acf7914337711be2029bcf",
        "trades.csv":
            "c2b2c184adb4da15dad1a4dfda188c541b1171c41f4c74fc0bb3de528d90ab23",
    },
    "seed11": {
        "outcomes.csv":
            "69fae7233cbf4fe6d60e55985799ef8edc1a424d7cce341465e72501509ac56c",
        "surveys.csv":
            "3cb97a880c01c554b3d7a9175a9762e09a3136773176bbb037a5b720da52f3c1",
        "trades.csv":
            "42880376eeeab1b7192fbe5f44dbdbe2b2ce7a19ba6eb08f16e2fa0c32ffd8af",
    },
}

GOLDEN = {
    "seed3": {
        "report": {
            "aggregates.csv":
                "b410c548c90f7f9023849faf8348ff51c88cd74e7229335d0edd2a6c7437ee4c",
            "curve_hours.csv":
                "6d2de31dd2538ed777eab931b63056e77b11e890a97bdb1f4a2281119acca839",
            "curve_trades.csv":
                "1b6c0cb287ede9c7dfe3b2fda78e131ceb9a1afaad249811f36fe98457783390",
            "discrepancies.csv":
                "879a827599ffba9fcff924b95360f3c1216f26b614046695bd6c06fb3a47e4bf",
            "report.json":
                "9c4aa49bf658b6dceca10c6a45476738d0f873368df21cc6064248fa06176509",
            "scores.csv":
                "b5849b43053098d904532e920f06766021901e570905d966ea1b49e53c40e6c8",
            "table1.csv":
                "ddfdfb4e5e90adbcc9421ce1720047783ddea0ad659906537f4efc8b42b5054b",
            "table1.json":
                "80d785bd447904d5dbc13b805a3ac749eb2ca5d9fa900cdecb441ea3bb920711",
            "table2.csv":
                "836e331976ecdbf70d82a134f79f071bfd0d5c0871d6ecdd129eba11a980b367",
            "table2.json":
                "991738f013d2ee667dcf95c3910ee0cb98adbc73191c6686dedfe2fb9ffa2826",
        },
        "evaluate": {
            "evaluation.json":
                "7b8894fbc92713efce8ddbf34a32d2c2fe8732e6acdf4603c5c70a57b74ded04",
            "scores.csv":
                "b5849b43053098d904532e920f06766021901e570905d966ea1b49e53c40e6c8",
        },
        "dynamics": {
            "curve_hours.csv":
                "6d2de31dd2538ed777eab931b63056e77b11e890a97bdb1f4a2281119acca839",
            "curve_trades.csv":
                "1b6c0cb287ede9c7dfe3b2fda78e131ceb9a1afaad249811f36fe98457783390",
            "dynamics.json":
                "9d2e1e35263d949de87513e7319b6d1707b486fc1c0b3fe78fe43ad46fbb9609",
        },
        "aggregate": {
            "aggregates.csv":
                "b410c548c90f7f9023849faf8348ff51c88cd74e7229335d0edd2a6c7437ee4c",
        },
        "pvalue": {
            "table2.csv":
                "836e331976ecdbf70d82a134f79f071bfd0d5c0871d6ecdd129eba11a980b367",
            "table2.json":
                "991738f013d2ee667dcf95c3910ee0cb98adbc73191c6686dedfe2fb9ffa2826",
        },
        "replay": {
            "replay.csv":
                "efbce888dd0152bce2af40201e516f17c6c72bcfd0ab09129de83e699709c277",
        },
        "replay_simulated": {
            "replay.csv":
                "c0b473312f970429a70d5196a34c155109fccffb5dc49ab62cf279b2f9ae1850",
        },
        "validate": {
            "validation.json":
                "f8ed081662829c4fed08f6b86d42675f240e09537115607a70b48b2e88daf9e3",
        },
    },
    "seed11": {
        "report": {
            "aggregates.csv":
                "e88d3ccb046b312f98e944352a188083d59aa70ce77b828519cdde1b4aae9f37",
            "curve_hours.csv":
                "9d075710f8e8d81e7b0604cb528a265d0e512b25059349b9421849b6e8e57405",
            "curve_trades.csv":
                "79024f2b44ce6d4f9e3ae553d872cc1c57b44ab6e7ed74edc306469256385f39",
            "discrepancies.csv":
                "a773bed840d5ff37a97238601d1fcef92fd57a36c818990a668e4021fe9d7187",
            "report.json":
                "eeeb2cb2c94239f1589afcb935c1e677625c978f040f60a53bece365fbcf5688",
            "scores.csv":
                "6648e8057a925674759867b075779d6615a57fe29709184f332b5e6b1b1aaaac",
            "table1.csv":
                "7b483d593cb59af2c64b82ca07af5c4805a46a2d0eb9ca564ebc7ca5fc7cfb8d",
            "table1.json":
                "68bb575952551f05757ab4f509abc68ce78470ddff90a191e23592dabc055642",
            "table2.csv":
                "c8021f1687c8b337331bc720cb39c87076742639027bd7f91049d657ed254c14",
            "table2.json":
                "a11302eb6f48b9889308144cb88044950ec589433555d2640a675996864c8c8c",
        },
        "evaluate": {
            "evaluation.json":
                "31034c992c974091891a8fc75ea491a8c89dfaffeaa2788536eb52f1330aaba9",
            "scores.csv":
                "6648e8057a925674759867b075779d6615a57fe29709184f332b5e6b1b1aaaac",
        },
        "dynamics": {
            "curve_hours.csv":
                "9d075710f8e8d81e7b0604cb528a265d0e512b25059349b9421849b6e8e57405",
            "curve_trades.csv":
                "79024f2b44ce6d4f9e3ae553d872cc1c57b44ab6e7ed74edc306469256385f39",
            "dynamics.json":
                "a13ff30ebb2984cfac8584c813095b997203041267745be745b52260af94f98d",
        },
        "aggregate": {
            "aggregates.csv":
                "e88d3ccb046b312f98e944352a188083d59aa70ce77b828519cdde1b4aae9f37",
        },
        "pvalue": {
            "table2.csv":
                "c8021f1687c8b337331bc720cb39c87076742639027bd7f91049d657ed254c14",
            "table2.json":
                "a11302eb6f48b9889308144cb88044950ec589433555d2640a675996864c8c8c",
        },
        "replay": {
            "replay.csv":
                "cd1f4b99c046d68d2c98f9f31954d21eda627513c7de8d04d527a1e87dcf5dad",
        },
        "replay_simulated": {
            "replay.csv":
                "2aa45107d2cd2fe5c8acd74777f58891961f65d0ddb0a91be150395b84dc6022",
        },
        "validate": {
            "validation.json":
                "570fdd88d6315d26fc976f8fab7f2e1a9f65236e9f31d4a49b22af03db4d96b0",
        },
    },
}


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    return {name: write_fixture(synthetic_dataset(seed=seed, n_markets=markets, n_traders=10),
                                tmp_path_factory.mktemp(name))
            for name, (seed, markets) in FIXTURES.items()}


@pytest.fixture(scope="module")
def fixture_args(fixture_paths):
    return {name: ["--outcomes", str(paths["outcomes"]), "--surveys", str(paths["surveys"]),
                   "--trades", str(paths["trades"])]
            for name, paths in fixture_paths.items()}


def _digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@pytest.mark.parametrize("fixture", FIXTURES)
def test_synth_tables_match_golden_digests(fixture_paths, fixture):
    assert _digests(fixture_paths[fixture].values()) == FIXTURE_GOLDEN[fixture]


def _run(argv, out) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main([*argv, "--out", str(out)])


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_golden_digests(fixture_args, tmp_path, fixture, command):
    assert _run([*COMMANDS[command], *fixture_args[fixture]], tmp_path) == 0
    assert _digests(tmp_path.iterdir()) == GOLDEN[fixture][command]


def test_evaluate_builds_no_curves(fixture_args, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("evaluate must not build error curves")

    monkeypatch.setattr(dynamics, "mean_error_curve", boom)
    monkeypatch.setattr(dynamics, "loess_fit", boom)
    assert _run(["evaluate", *fixture_args["seed3"]], tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "evaluation.json", "scores.csv"]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_every_json_file_is_strict_json(fixture_args, tmp_path, fixture):
    for command, argv in COMMANDS.items():
        out = tmp_path / command
        assert _run([*argv, *fixture_args[fixture]], out) == 0
        for path in out.glob("*.json"):
            load_strict_json(path)
