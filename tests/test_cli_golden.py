"""Byte-identity of the CLI on the checked-in instances.

`golden/cli.json` holds the output and exit code of `principalize --json`,
`inv --json` and `order` on every `instances/*.fol` but ex510 (whose invariant
computation does not finish), at truncations 6, 7 and 8, in both modes, and
of `monres --json` on the files with a `monomial` block and `blowup` on the
others.  It also holds `inv --json`, `blowup`, `blowup --chart` (the first
center variable) and `principalize --json` on every `golden/charts/*.fol`,
whose centers all sit in a non-identity aligned chart.  On both sets of files
it also holds `principalize` without `--json` (the step report, or "already
principal"), and it holds `check-transverse` on every
`golden/transverse/*.fol`.  A change that should keep every answer must keep
this file.

Regenerate it (only when an answer is meant to change) with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import io
import json
from pathlib import Path

from folprin import PointedInstance, cli_main, inv_at, parse_instance

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
CHARTS = Path(__file__).resolve().parent / "golden" / "charts"
TRANSVERSE = Path(__file__).resolve().parent / "golden" / "transverse"
LEFT_OUT = {"ex510.fol"}
TRUNCATIONS = (6, 7, 8)
MODES = ("controlled", "strict")


def _first_center_variable(path, n):
    inst = parse_instance(path.read_text(), truncation=n)
    _, center = inv_at(PointedInstance(inst.context, inst.rees, inst.foliation))
    return center.variables()[0]


def _cases():
    for path in sorted((ROOT / "instances").glob("*.fol")):
        if path.name in LEFT_OUT:
            continue
        monomial = any(line.startswith("monomial")
                       for line in path.read_text().splitlines())
        commands = ("principalize", "inv", "order",
                    "monres" if monomial else "blowup")
        for n in TRUNCATIONS:
            for mode in MODES:
                argv = [str(path), "--mode", mode, "--truncation", str(n)]
                for command in commands:
                    key = "%s %s N=%d %s" % (command, path.name, n, mode)
                    yield key, [command, "--json"] + argv
                key = "principalize (text) %s N=%d %s" % (path.name, n, mode)
                yield key, ["principalize"] + argv
    for path in sorted(CHARTS.glob("*.fol")):
        name = "charts/" + path.name
        for n in TRUNCATIONS:
            chart = _first_center_variable(path, n)
            for mode in MODES:
                argv = [str(path), "--json", "--mode", mode, "--truncation", str(n)]
                for command in ("principalize", "inv", "blowup"):
                    key = "%s %s N=%d %s" % (command, name, n, mode)
                    yield key, [command] + argv
                key = "blowup --chart %s %s N=%d %s" % (chart, name, n, mode)
                yield key, ["blowup"] + argv + ["--chart", chart]
                key = "principalize (text) %s N=%d %s" % (name, n, mode)
                yield key, ["principalize", str(path), "--mode", mode,
                            "--truncation", str(n)]
    for path in sorted(TRANSVERSE.glob("*.fol")):
        for n in TRUNCATIONS:
            key = "check-transverse transverse/%s N=%d" % (path.name, n)
            yield key, ["check-transverse", str(path), "--truncation", str(n)]


def cli_outputs() -> dict:
    out = {}
    for key, argv in _cases():
        buf = io.StringIO()
        code = cli_main(argv, out=buf)
        out[key] = {"exit": code, "output": buf.getvalue()}
    return out


def test_cli_outputs_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = cli_outputs()
    assert sorted(got) == sorted(want)
    differ = [key for key in want if got[key] != want[key]]
    assert not differ, "CLI output changed for: %s" % ", ".join(differ)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cli_outputs(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
