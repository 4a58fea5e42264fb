"""The scripts under scripts/ run end to end on small inputs."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_e2e_reports_one_row_per_model(capsys):
    e2e = load_script("run_synthetic_e2e")
    code = e2e.main([
        "--pairs", "200", "--iterations", "2",
        "--hmm-iterations", "1", "--hmm-init-iterations", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    rows = [line.split()[0] for line in out.splitlines() if " AER " in line]
    assert rows == ["model1", "model2", "hmm"]
