"""perfbench/tracer.py wraps the functions named in its LAYERS; each must
still exist, or only the traced benchmark run would notice."""

import importlib.util
import sys
from pathlib import Path

import arfbrown
from arfbrown import (  # noqa: F401  (every module the tracer patches)
    cli, clifford, exactla, f2, majorana, pin1, quadform, surface, tqft,
)
from arfbrown.pin1 import ChainSetup

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    traced = []
    for module, names in tracer_module.LAYERS.items():
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = sys.modules[f"arfbrown.{module}"]
            owner = getattr(owner, owner_name) if owner_name else owner
            traced.append((owner, attr, getattr(owner, attr)))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for owner, attr, original in traced:
            assert getattr(owner, attr).__wrapped__ is original
        arfbrown.majorana.ground_states(ChainSetup.circle((0, 1, 1)))
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["majorana.ground_states"]
    assert all(getattr(owner, attr) is original for owner, attr, original in traced)
