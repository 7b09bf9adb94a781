"""The benchmark's traced run, installed on the package as it stands."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_samples_every_layer():
    # the tracer wraps each target in its owner's __dict__ and then calls
    # each once: a target that moved (a ring operator hoisted into a base
    # class, say) or a renamed call fails here, not only in a traced run
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracer; "
            "tracer.Tracer().install(); tracer.layer_sample()")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"),
                           str(ROOT / "perfbench")], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
