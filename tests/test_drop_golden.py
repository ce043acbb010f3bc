"""Byte-identity of the criterion-5 drop corpus.

`golden/drop.json` holds one sha256 per run: each of the 52 instances of
`test_acceptance._drop_instances()`, blown up once in each mode.  A run's
text holds the invariant and center, the center's inverse chart (one line
per ambient variable in context order, `v: v` for the identity), the data
rewritten into the aligned chart, the cobordism, the transformed data, and
the invariant, center and inverse chart at every chart origin.  A change
that should keep every answer must keep this file.

Regenerate it (only when an answer is meant to change) with
`PYTHONPATH=src python tests/test_drop_golden.py`.
"""

import hashlib
import json
from pathlib import Path

from test_acceptance import _drop_instances, _one_step

GOLDEN = Path(__file__).resolve().parent / "golden" / "drop.json"
MODES = ("controlled", "strict")


def _inverse_chart(center):
    inverse = center.change.inverse if center.change else {}
    return ["%s: %s" % (v, inverse.get(v, v)) for v in center.context.variables]


def _describe(vec, center):
    return ["inv %s" % vec, "center %s" % center] + _inverse_chart(center)


def run_text(inst, mode) -> str:
    """Everything one blow-up of the computed center produces, as text."""
    step = _one_step(inst, mode)
    lines = _describe(step["vec"], step["center"])
    if "B" in step:
        lines += ["rewritten %s %s" % (step["Ra"], step["Fa"]), str(step["B"]),
                  "transformed %s %s" % (step["Rt"], step["Ft"])]
    for ci, (vec, center) in step["charts"].items():
        lines += ["chart %s" % ci] + _describe(vec, center)
    return "\n".join(lines)


def drop_hashes() -> dict:
    out = {}
    for i, (family, inst) in enumerate(_drop_instances()):
        for mode in MODES:
            text = run_text(inst, mode)
            out["%02d %s %s" % (i, family, mode)] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
    return out


def test_drop_corpus_matches_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = drop_hashes()
    assert sorted(got) == sorted(want)
    differ = [key for key in want if got[key] != want[key]]
    assert not differ, "drop-corpus answers changed for: %s" % ", ".join(differ)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(drop_hashes(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
