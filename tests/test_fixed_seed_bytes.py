"""Fixed-seed runs write the same bytes.

"Same behaviour" includes byte-identical CSV and PGM output for fixed
seeds.  These digests pin one small ``sketchout phase`` grid (the README's
sacos example sizes) and the masks of ``scripts/saliency_demo.py``, which
run acos and sacos.  A change that moves any of them changes what the
package computes, and must say so and record the new digests.
"""

import hashlib
import json
import sys

from sketchout.cli import main

import saliency_demo

#: The README's phase_grid example, as a ``sketchout phase`` config.
PHASE = dict(mode="sacos", n1=40, n2=200, m=10, gamma=0.5, r_values=[1, 5], k_values=[10],
             lambda_set=[0.4], trials=2)

#: file name -> SHA-256 of its bytes.  Every demo run declares the five
#: planted patches, so its three masks are equal.
DIGESTS = {
    "phase.csv": "e558b413e629b8c9fc3c34e2d72726a41a8764ae14b199668aee70d31735356e",
    "phase.pgm": "38eef8bbd8cde25584fdb4b6b41f3cdc568a82c0ca229b1219c91cbc9e9967eb",
    "saliency_sacos_m20.pgm": "1afb7f3dd8b23187b67956c00b2917f1658fb4ba760c7ddd8e485c7cf0526caf",
    "saliency_sacos_m10.pgm": "1afb7f3dd8b23187b67956c00b2917f1658fb4ba760c7ddd8e485c7cf0526caf",
    "saliency_acos_m10.pgm": "1afb7f3dd8b23187b67956c00b2917f1658fb4ba760c7ddd8e485c7cf0526caf",
}


def test_fixed_seed_outputs_are_pinned(tmp_path, monkeypatch):
    config = tmp_path / "phase.json"
    config.write_text(json.dumps(PHASE))
    code = main(["phase", str(config), "--out-csv", str(tmp_path / "phase.csv"),
                 "--out-pgm", str(tmp_path / "phase.pgm")])
    assert code == 0
    monkeypatch.setattr(sys, "argv", ["saliency_demo.py", "--out", str(tmp_path)])
    saliency_demo.main()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
