import os
import pathlib
import subprocess
import sys

import opfam

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_pseudospectrum_demo_writes_three_renderings(tmp_path):
    src = os.path.dirname(os.path.dirname(opfam.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "pseudospectrum_demo.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for fmt in ("csv", "pgm", "svg"):
        assert (tmp_path / f"flip_spectrum.{fmt}").stat().st_size > 0, fmt
